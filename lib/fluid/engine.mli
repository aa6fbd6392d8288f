(** Fixed-step discretised fluid backend: flows on one bottleneck,
    each advancing a {!Ccac.Model.fluid} per-RTT update law, the link
    integrating a fluid queue (occupancy ODE, proportional loss when
    the buffer is full, queueing-delay feedback plus per-flow jitter).

    Per step of length [dt] each live flow, in flow-index order,
    observes [delay = rm + q/C + jitter t] and offers [cwnd/delay * dt]
    bytes; arrivals are clipped by the free buffer room (the clipped
    fraction dropped proportionally and flagged as loss), the queue
    serves [min(q, C*dt)] split by backlog, and a flow whose epoch is
    one observed RTT old runs its law's update.

    The configured flows start at [t0]; {!admit} adds a flow between
    steps.  A sized flow completes once its bytes are served: it leaves
    the live set, so a step costs O(live flows), its law state is
    dropped, its goodput is kept, and any backlog it still has joins the
    phantom initial-queue backlog, so the ledger stays exact.

    Deterministic: a pure function of the config and the admissions
    (jitter closures included).  The byte ledger is exact up to float
    rounding — {!conservation_error} is the oracle input. *)

type flow_spec

val flow :
  ?jitter:(float -> float) -> ?size:float -> ?mss:float -> Ccac.Model.fluid ->
  flow_spec
(** [jitter] maps absolute sim time to the flow's non-congestive extra
    delay (the model's D element); [size] in bytes ([infinity] = an
    unbounded stream, the default). *)

type config = private {
  rate : float;  (** bottleneck, bytes/s *)
  buffer : float;  (** bytes; [infinity] = unbounded *)
  rm : float;  (** base propagation RTT, seconds *)
  dt : float;  (** step, seconds (default rm/8) *)
  t0 : float;
  duration : float;
  measure_from : float;  (** absolute time; counted bytes + queue integral *)
  initial_queue : float;  (** phantom backlog pre-loaded at [t0] *)
  flows : flow_spec array;  (** live from [t0] *)
}

val config :
  rate:float ->
  ?buffer:float ->
  rm:float ->
  ?dt:float ->
  ?t0:float ->
  ?measure_from:float ->
  ?initial_queue:float ->
  duration:float ->
  flow_spec list ->
  config

type t

val create : config -> t
(** The configured flows are live at once, numbered 0.. in list order
    (so the hybrid backend can seed their state before stepping). *)

val admit : t -> flow_spec -> unit
(** Add a flow that starts now; it takes the next flow number. *)

val step : t -> unit
(** One step of [min dt (t0 + duration - now)]. *)

val finished : t -> bool
(** The clock has reached [t0 + duration]. *)

val run : t -> t
(** {!step} until {!finished}. *)

val run_config : config -> t

val now : t -> float
val steps : t -> int
val live : t -> int
(** Flows currently stepped: admitted and not completed. *)

val completions : t -> int
val queue_bytes : t -> float
val mean_queue_bytes : t -> float
(** Time-average of the queue from [measure_from] to [now]. *)

(** The per-flow accessors below raise [Invalid_argument] on a
    completed flow, except {!goodput}. *)

val flow_cwnd : t -> int -> float
val set_flow_cwnd : t -> int -> float -> unit
(** Hybrid packet->fluid translation: seed the law state from an
    externally observed window (exits slow start). *)

val flow_min_delay : t -> int -> float
val set_flow_min_delay : t -> int -> float -> unit
val flow_rate : t -> int -> float
(** cwnd over the last observed delay — the paced-rate estimate handed
    to the packet backend at a fluid->packet switch. *)

val served_bytes : t -> int -> float
val counted_bytes : t -> int -> float
(** Bytes served after [measure_from]. *)

val goodput : t -> int -> float
(** Served bytes over the flow's own lifetime: admission to completion,
    or to [now] while live. *)

val accepted_total : t -> float
val served_total : t -> float
(** Includes the phantom initial-queue bytes drained through the link. *)

val offered_total : t -> float

val conservation_error : t -> float
(** [|initial_queue + accepted - served - queue|] in bytes: every
    accepted byte is either still queued or was served.  Should be
    within float rounding of 0; the fluid conservation oracle asserts
    it. *)
