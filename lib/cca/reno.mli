(** TCP NewReno congestion avoidance (loss-based AIMD).

    Slow start to [ssthresh], then one segment of window growth per RTT
    (byte-counted).  A dup-ACK loss halves the window; a timeout resets it
    to one segment.  Losses within one RTT of a reduction are treated as
    part of the same congestion event (standard fast-recovery behavior),
    which is what bounds AIMD unfairness under bursty loss (§5.4). *)

type params = {
  init_cwnd_packets : float;
  initial_ssthresh : float;  (** bytes; [infinity] = slow start until loss *)
  mss : int;
}

val default_params : params
val make : ?params:params -> unit -> Cca.t
(** A standalone instance: {!make_in} on a fresh one-row arena. *)

val nfields : int
(** Float cells per instance in the columnar layout. *)

val make_in : ?params:params -> Columns.t -> Cca.instance
(** The algorithm, with all state in one row of the given arena (which
    must have {!nfields} fields).  The returned instance is resettable
    and its [release] frees the row. *)
