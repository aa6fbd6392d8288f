(** CCA equilibrium oracles: closed-loop steady states against the
    closed forms the paper builds on.

    - Reno under Bernoulli loss p obeys the square-root law
      [throughput ≈ mss * sqrt(3/2) / (rtt * sqrt p)] (Mathis et al.);
      the tolerance is wide (±25%) because the law itself is a
      steady-state approximation, but it still catches a simulator whose
      loss response or ACK clocking is wrong by a structural factor.
    - Vegas holds a standing queue between [alpha] and [beta] packets.
    - Copa (default mode) oscillates around a standing queueing delay of
      [mss / (delta * C)] with a band of roughly [4 mss / C] (§2.2 of
      the paper).

    Each oracle runs its own small single-flow scenario (deterministic
    except for Reno's Bernoulli loss, which is seeded) and reports
    {!Oracle.verdict}s. *)

val mean_queue_bytes : Sim.Network.t -> t0:float -> t1:float -> float
(** Time-average bottleneck queue occupancy (bytes) over [[t0, t1]]: the
    exact integral of the link's recorded queue series (the network must
    run with [record_queue]), not an event-weighted mean. *)

val reno_loss_law : ?seed:int -> unit -> Oracle.verdict list
(** Single Reno flow, 2% i.i.d. loss, a link fast enough that queueing
    is negligible.  Judges measured goodput against the square-root law
    evaluated at the measured mean RTT. *)

val vegas_standing_queue : ?seed:int -> unit -> Oracle.verdict list
(** Single Vegas flow on an ideal path: the time-averaged standing queue
    must sit within the [alpha..beta]-packet corridor. *)

val copa_standing_queue : ?seed:int -> unit -> Oracle.verdict list
(** Single Copa flow on an ideal path: the time-averaged queueing delay
    must sit within the oscillation band around [mss / (delta * C)]. *)

val all : ?seed:int -> unit -> Oracle.verdict list
