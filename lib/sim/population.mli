(** Churning flow population over one bottleneck — the census engine.

    Runs [n] finite flows (Poisson arrivals over the first
    [arrival_frac] of the horizon, Pareto sizes) through a pool of
    recycled flow slots sized by {e peak concurrency}, not by [n]: a
    departed flow's slot — [Flow.t], outstanding rings, ACK delay line,
    columnar CCA row — is reincarnated in place ({!Flow.respawn}) for
    the next arrival.  Memory and event-queue size scale with the
    birth-death process's concurrency bound, which is what makes a
    one-million-flow census fit one machine; see DESIGN.md §13.

    The run is deterministic: arrivals and sizes come from {!draw}, so
    the population is identical no matter how slots happen to be
    recycled. *)

(** {1 The population draw} *)

type draw
(** The census population as a lazy generator: a pure function of
    [(seed, key, n, window, alpha, xm, size_cap)].  {!run}, the fluid
    census and the churn benchmark all draw their flows here, so two
    backends given the same key run the same population. *)

val draw :
  seed:int -> key:string -> n:int -> window:float -> alpha:float -> xm:float ->
  size_cap:int -> draw
(** Draws from the labeled streams [key ^ "/arrivals"] and
    [key ^ "/sizes"] of [seed]'s master generator. *)

val next : draw -> float * int
(** The next flow's [(arrival, size)], in flow order.  Arrivals are
    Poisson with mean gap [window / n], clamped to [window], so they are
    nondecreasing; sizes are Pareto([alpha], [xm]) truncated to whole
    bytes and capped at [size_cap]. *)

(** {1 The census engine} *)

type config = {
  n : int;  (** flows to spawn *)
  duration : float;  (** simulated horizon, seconds *)
  arrival_frac : float;  (** arrivals occur in [0, arrival_frac * duration] *)
  rate : float;  (** bottleneck rate, bytes/s *)
  buffer : int option;  (** drop-tail capacity, bytes; [None] = unbounded *)
  rm : float;  (** one-way propagation delay after the bottleneck *)
  mss : int;
  jitter_d : float;  (** ACK-path jitter bound D (uniform in [0, D]); 0 = none *)
  seed : int;
  key : string;  (** RNG stream namespace — make it unique per cell *)
  alpha : float;  (** Pareto shape for flow sizes *)
  xm : float;  (** Pareto scale (bytes) *)
  size_cap : int;  (** flow sizes are truncated to this many bytes *)
}

type result = {
  goodputs : float array;
      (** per-flow goodput in spawn order: delivered bytes over the
          flow's own lifetime (to completion, or to the horizon while
          incomplete).  Length [n]. *)
  spawned : int;  (** always [n] *)
  completed : int;
  peak_active : int;  (** concurrency high-water mark *)
  peak_pending : int;  (** event-queue high-water mark, sampled at spawns *)
  slots : int;  (** flow slots ever created — bounded by concurrency *)
  table_capacity : int;  (** rows in the shared {!Flow.Table} *)
  fallbacks : int;
      (** delay-line non-monotone escapes; 0 for every shipped policy *)
}

val flows : config -> draw
(** The population {!run} spawns: {!draw} over the config's seed, key,
    [n], [arrival_frac * duration] window and size law. *)

val run :
  cca:(slot:int -> prev:Cca.instance option -> Cca.instance) ->
  config ->
  result
(** [cca ~slot ~prev] supplies the congestion controller for each
    incarnation of a slot.  [prev] is the slot's previous instance when
    the slot is being recycled: a columnar factory resets and returns it
    (allocation-free churn); returning a different instance releases the
    old one.  Called once per spawned flow. *)
