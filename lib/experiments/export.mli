(** The figure tables: the numeric series behind the paper's figures and
    the extension plots, defined once.  [starvation_lab export] writes
    them as CSV files; [starvation_lab figures] charts and prints them. *)

type table = {
  name : string;  (** file stem, e.g. ["fig1_copa"] *)
  cols : string list;  (** column headers, units in SI (s, B, Mbit/s) *)
  rows : float list list;  (** one list per sample, in column order *)
}

val tables : quick:bool -> table list * string list
(** Every figure table, in a fixed order, plus one message per figure
    that could not be built: a failed Theorem 1 construction takes
    Figures 4-6 with it and is reported here, never dropped silently. *)

val write_csv : path:string -> cols:string list -> float list list -> unit
(** Write a header row and one line per sample. *)

val write : dir:string -> table list -> string list
(** One [<name>.csv] per table under [dir] (created if missing).
    Returns the paths written, in table order. *)

val series_to_rows : ?stride:int -> Sim.Series.t -> float list list
(** (time, value) rows, optionally keeping every [stride]-th sample. *)
