(* Flat column arena for per-flow CCA state.

   One arena holds the state of every live CCA instance of one kind in a
   single unboxed [float array]: row [r]'s fields occupy
   [r * nfields .. r * nfields + nfields - 1].  Reads and writes are
   unboxed float-array accesses — the same discipline as
   [Flow.Table] — so a quiesced flow's congestion state costs
   [nfields] floats of flat storage instead of a boxed record plus
   header, and a million-flow census keeps all CCA state in a handful
   of contiguous arrays.

   Rows are recycled through an explicit free list: [free] pushes a
   retired row onto a stack and [alloc] pops it before growing the
   arena, so steady-state flow churn allocates nothing and the arena's
   high-water mark tracks peak concurrency, not total population.

   Growth replaces [data], so CCA callbacks must re-read [t.data] on
   every event rather than caching the array across events.  Nothing
   inside a callback grows the arena, so a single read of [t.data] per
   callback is safe. *)

type t = {
  nfields : int;
  mutable data : float array; (* row r, field f at r * nfields + f *)
  mutable rows : int; (* rows ever allocated (high-water mark) *)
  mutable free : int array; (* stack of retired row indices *)
  mutable nfree : int;
}

let create ?(capacity = 16) ~nfields () =
  if nfields <= 0 then invalid_arg "Columns.create: nfields must be positive";
  let capacity = max 1 capacity in
  {
    nfields;
    data = Array.make (capacity * nfields) 0.;
    rows = 0;
    free = [||];
    nfree = 0;
  }

let nfields t = t.nfields
let rows t = t.rows
let live t = t.rows - t.nfree
let capacity t = Array.length t.data / t.nfields

let alloc t =
  let r =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else begin
      let r = t.rows in
      if (r + 1) * t.nfields > Array.length t.data then begin
        let data = Array.make (2 * Array.length t.data) 0. in
        Array.blit t.data 0 data 0 (t.rows * t.nfields);
        t.data <- data
      end;
      t.rows <- r + 1;
      r
    end
  in
  Array.fill t.data (r * t.nfields) t.nfields 0.;
  r

let free t r =
  if r < 0 || r >= t.rows then invalid_arg "Columns.free: row out of range";
  if t.nfree = Array.length t.free then begin
    let cap = max 16 (2 * Array.length t.free) in
    let fr = Array.make cap 0 in
    Array.blit t.free 0 fr 0 t.nfree;
    t.free <- fr
  end;
  t.free.(t.nfree) <- r;
  t.nfree <- t.nfree + 1

let data t = t.data
