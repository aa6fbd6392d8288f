(** Flat column arena for per-flow CCA state.

    The columnar layout contract for {!Cca} implementations: all float
    state of one CCA kind lives in one unboxed [float array], one row of
    [nfields] consecutive cells per instance.  Rows are allocated with
    {!alloc}, recycled through a free list with {!free}, and accessed
    through {!data} at [row * nfields + field] — every access is an
    unboxed float-array load or store.

    Constructors like [Reno.make_in] take an arena and return a
    {!Cca.instance} whose closures hold only the arena and a row index;
    releasing the instance returns the row to the free list, so a
    churning million-flow population's CCA state footprint is bounded by
    peak concurrency, not population size.

    The backing array is replaced on growth: cache [t], never the array
    itself, across events.  Nothing inside a CCA callback grows the
    arena, so one {!data} read per callback is safe. *)

type t

val create : ?capacity:int -> nfields:int -> unit -> t
(** Arena with rows of [nfields] float cells; [capacity] (default 16)
    pre-sizes the backing array in rows.
    @raise Invalid_argument if [nfields <= 0]. *)

val nfields : t -> int

val alloc : t -> int
(** Pop a recycled row (or extend the arena) and zero-fill it.  Returns
    the row index. *)

val free : t -> int -> unit
(** Return a row to the free list.  The caller must not touch the row
    afterwards; {!alloc} will hand it out again zeroed.
    @raise Invalid_argument on an index never allocated. *)

val rows : t -> int
(** Rows ever allocated — the high-water mark, free or live. *)

val live : t -> int
(** Rows currently allocated and not freed. *)

val capacity : t -> int
(** Rows the backing array can hold before the next growth. *)

val data : t -> float array
(** The backing array, row-major: row [r], field [f] at
    [r * nfields t + f].  Valid until the next {!alloc} that grows the
    arena. *)
