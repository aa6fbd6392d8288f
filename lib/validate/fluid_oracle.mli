(** Cross-validation of the fluid backend (lib/fluid) against the
    packet-level simulator, plus the fluid and hybrid byte-conservation
    oracles.

    Tolerances follow the z=5 discipline of {!Queueing}: z times the
    empirical standard error of the packet-side measurement (from
    disjoint subintervals of the measurement window), floored by the
    CCA's own oscillation band — the same sawtooth / alpha..beta slack
    the {!Equilibrium} oracles grant the packet simulator itself. *)

type cca_kind = Reno | Copa | Vegas

val kind_name : cca_kind -> string

val agreement_kind :
  ?seed:int ->
  ?rate:float ->
  ?rm:float ->
  ?duration:float ->
  cca_kind ->
  Oracle.verdict list
(** Run the same symmetric 2-flow scenario on both backends (Reno with
    a 1-BDP drop-tail buffer, the delay CCAs unbounded) and judge:
    equilibrium throughput ratio agreement, standing-queue agreement,
    and the fluid run's byte conservation. *)

val agreement :
  ?seed:int -> ?rate:float -> ?rm:float -> ?duration:float -> unit ->
  Oracle.verdict list
(** {!agreement_kind} over Reno, Copa and Vegas. *)

val conservation : scenario:string -> Fluid.Engine.t -> Oracle.verdict
(** Per-link fluid byte-conservation:
    [initial_queue + accepted = served + queue] within
    [1 + 1e-6 * accepted] bytes of float rounding. *)

val hybrid_conservation :
  scenario:string -> Fluid.Hybrid.result -> Oracle.verdict
(** Chained inflow/outflow/queue identity across all fluid and packet
    segments; slack is one byte per fluid->packet handoff (queue
    rounding) plus float rounding. *)

val threshold_rate : float
(** The E14 threshold scenario: two Copa flows on a [threshold_rate]
    (24 Mbit/s) bottleneck with a [threshold_rm] (40 ms) base RTT; flow
    0's ACK-path jitter steps from 0 to D at t = 1 s. *)

val threshold_rm : float

val threshold_delta_max : float
(** Copa's equilibrium oscillation at the fair share, 4 mss / (C/2) —
    the unit D is swept in. *)

val late_jitter : float -> float -> float
(** [late_jitter d t] is flow 0's jitter: 0 before t = 1 s, [d] after. *)

val hybrid_threshold_run :
  jitter_d:float -> duration:float -> Fluid.Hybrid.result
(** The threshold scenario at jitter bound [jitter_d] on the hybrid
    backend: packet windows after the t = 0 start and the t = 1
    activation, fluid in between; bytes counted over the second half. *)

val hybrid_threshold : ?duration:float -> unit -> Oracle.verdict list
(** End-to-end hybrid run of the E14 threshold scenario at D far below
    and far above the Copa starvation threshold: conservation holds at
    both, the high-D run starves (ratio > 4 — requires the poisoned
    min-RTT to survive the seams), the low-D run does not. *)

val all : ?seed:int -> ?quick:bool -> unit -> Oracle.verdict list
