(* In-memory tracing for the benchmark's traced runs.

   Coarse calls into a layer (Network.run, Population.run, Job.force,
   ...) are recorded as spans: name, start, end and parent, kept in a
   list and written out when the run ends.  Hot boundaries (every CCA
   callback) keep one aggregated (count, total ns) per name instead,
   charged to the innermost open span.  Nothing here reaches into the
   libraries: spans and counters wrap the public functions from the
   outside.

   Self time is a span's duration minus the part of it that child spans
   cover (their union, so overlapping children from parallel workers
   count once) minus the aggregated hot time charged to it.  Both are
   corrected for the clock: [calibrate] measures what an empty
   instrumented call costs in total ([empty_ns]) and how much of that
   falls between its two clock reads ([inner_ns]); the inner part is
   taken out of the measured callee and the rest out of the caller's
   self time.  What tracing itself cost is reported as the named
   remainder [trace.clock]. *)

(* CLOCK_MONOTONIC in nanoseconds, from the stub bechamel ships; declared
   here with an unboxed result so a clock read allocates nothing. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let[@inline] now_ns () = Int64.to_int (clock_ns ())

type agg = { a_name : string; mutable count : int; mutable total_ns : int }

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root *)
  start_ns : int;
  mutable stop_ns : int;
  mutable agg_ns : int;  (* hot time charged while open, inclusive *)
  mutable agg_calls : int;
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable stack : span list;  (* open spans, innermost first *)
  mutable next_id : int;
  mutable aggs : agg list;
  mutable hot_ns : int;  (* running totals over every aggregate *)
  mutable hot_calls : int;
}

let create () =
  { spans = []; stack = []; next_id = 0; aggs = []; hot_ns = 0; hot_calls = 0 }

let agg t name =
  match List.find_opt (fun a -> a.a_name = name) t.aggs with
  | Some a -> a
  | None ->
      let a = { a_name = name; count = 0; total_ns = 0 } in
      t.aggs <- a :: t.aggs;
      a

let[@inline] charge t a dt =
  a.count <- a.count + 1;
  a.total_ns <- a.total_ns + dt;
  t.hot_calls <- t.hot_calls + 1;
  t.hot_ns <- t.hot_ns + dt

let open_span t name =
  let parent = match t.stack with s :: _ -> s.id | [] -> -1 in
  let s =
    { id = t.next_id; name; parent; start_ns = now_ns (); stop_ns = -1;
      agg_ns = t.hot_ns; agg_calls = t.hot_calls }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- s :: t.stack;
  t.spans <- s :: t.spans;
  s

let close_span t s =
  s.stop_ns <- now_ns ();
  s.agg_ns <- t.hot_ns - s.agg_ns;
  s.agg_calls <- t.hot_calls - s.agg_calls;
  match t.stack with
  | top :: rest when top == s -> t.stack <- rest
  | _ -> invalid_arg "Trace.close_span: not the innermost span"

(* [span tr name f]: with no recorder this is just [f ()], so untraced
   passes run the identical code path minus the clock reads. *)
let span tr name f =
  match tr with
  | None -> f ()
  | Some t ->
      let s = open_span t name in
      Fun.protect ~finally:(fun () -> close_span t s) f

(* A span recorded elsewhere (a forked worker) and shipped back: it
   becomes a child of the innermost open span.  CLOCK_MONOTONIC is
   system-wide, so worker timestamps share the parent's time base. *)
let add_span t name ~start_ns ~stop_ns =
  let parent = match t.stack with s :: _ -> s.id | [] -> -1 in
  let s =
    { id = t.next_id; name; parent; start_ns; stop_ns; agg_ns = 0;
      agg_calls = 0 }
  in
  t.next_id <- t.next_id + 1;
  t.spans <- s :: t.spans

(* ------------------------------------------------------------------ *)
(* Hot-boundary wrappers                                               *)
(* ------------------------------------------------------------------ *)

type cca_aggs = {
  on_ack : agg;
  on_loss : agg;
  on_send : agg;
  on_timer : agg;
  next_timer : agg;
  cwnd : agg;
  pacing_rate : agg;
}

let cca_aggs t =
  let a n = agg t ("cca." ^ n) in
  { on_ack = a "on_ack"; on_loss = a "on_loss"; on_send = a "on_send";
    on_timer = a "on_timer"; next_timer = a "next_timer"; cwnd = a "cwnd";
    pacing_rate = a "pacing_rate" }

let cca_calls c =
  List.fold_left (fun acc a -> acc + a.count) 0
    [ c.on_ack; c.on_loss; c.on_send; c.on_timer; c.next_timer; c.cwnd;
      c.pacing_rate ]

(* Every closure the simulator drives is timed; [inspect] is left alone
   (tests and hybrid seams read it, never the packet hot path). *)
let wrap_cca t c (cca : Cca.t) : Cca.t =
  let timed a f x =
    let t0 = now_ns () in
    let r = f x in
    charge t a (now_ns () - t0);
    r
  in
  {
    cca with
    on_ack = timed c.on_ack cca.on_ack;
    on_loss = timed c.on_loss cca.on_loss;
    on_send = timed c.on_send cca.on_send;
    on_timer = timed c.on_timer cca.on_timer;
    next_timer = timed c.next_timer cca.next_timer;
    cwnd = timed c.cwnd cca.cwnd;
    pacing_rate = timed c.pacing_rate cca.pacing_rate;
  }

(* ------------------------------------------------------------------ *)
(* Clock calibration                                                   *)
(* ------------------------------------------------------------------ *)

type calibration = { empty_ns : float; inner_ns : float }

(* The cost of an empty aggregated call, measured with the same code
   shape the wrappers use: median over batches so a preempted batch
   does not skew it. *)
let calibrate () =
  let t = create () in
  let a = agg t "calibration" in
  let batch = 20_000 in
  let sample () =
    let before = a.total_ns in
    let t0 = now_ns () in
    for _ = 1 to batch do
      let s = now_ns () in
      charge t a (now_ns () - s)
    done;
    let total = now_ns () - t0 in
    ( float_of_int total /. float_of_int batch,
      float_of_int (a.total_ns - before) /. float_of_int batch )
  in
  let samples = List.init 15 (fun _ -> sample ()) in
  let med xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  { empty_ns = med (List.map fst samples); inner_ns = med (List.map snd samples) }

(* ------------------------------------------------------------------ *)
(* Self times                                                          *)
(* ------------------------------------------------------------------ *)

(* Length of the union of [intervals], clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let sorted =
    List.sort compare
      (List.filter_map
         (fun (a, b) ->
           let a = max a lo and b = min b hi in
           if b > a then Some (a, b) else None)
         intervals)
  in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (acc, Some (ca, max cb b))
            else (acc + (cb - ca), Some (a, b)))
      (0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

type self = {
  s_name : string;
  s_count : int;
  s_self_ns : float;  (* clock-corrected *)
}

(* Self time per span name and per aggregate, clock-corrected, plus the
   named tracing remainder.  Spans recorded in another process (worker
   spans) carry no local clock cost and are charged nothing. *)
let self_times ?(remote = fun _ -> false) cal t =
  let spans = List.rev t.spans in
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  let by_name = Hashtbl.create 32 in
  let add name count ns =
    let c, v = Option.value (Hashtbl.find_opt by_name name) ~default:(0, 0.) in
    Hashtbl.replace by_name name (c + count, v +. ns)
  in
  let overhead = cal.empty_ns -. cal.inner_ns in
  let clock = ref 0. in
  List.iter
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      let cover =
        covered ~lo:s.start_ns ~hi:s.stop_ns
          (List.map (fun k -> (k.start_ns, k.stop_ns)) kids)
      in
      let kids_agg_ns = List.fold_left (fun acc k -> acc + k.agg_ns) 0 kids in
      let kids_agg_calls =
        List.fold_left (fun acc k -> acc + k.agg_calls) 0 kids
      in
      let own_calls = s.agg_calls - kids_agg_calls in
      let local_kids = List.length (List.filter (fun k -> not (remote k.name)) kids) in
      let raw = float_of_int (s.stop_ns - s.start_ns - cover - (s.agg_ns - kids_agg_ns)) in
      let charged = float_of_int (own_calls + local_kids) *. overhead in
      if not (remote s.name) then clock := !clock +. cal.empty_ns;
      add s.name 1 (raw -. charged))
    spans;
  List.iter
    (fun a ->
      if a.count > 0 then begin
        add a.a_name a.count
          (float_of_int a.total_ns -. (float_of_int a.count *. cal.inner_ns));
        clock := !clock +. (float_of_int a.count *. cal.empty_ns)
      end)
    t.aggs;
  let selfs =
    Hashtbl.fold
      (fun s_name (s_count, s_self_ns) acc -> { s_name; s_count; s_self_ns } :: acc)
      by_name []
    |> List.sort (fun a b -> compare a.s_name b.s_name)
  in
  (selfs, !clock)

let self_ns selfs name =
  match List.find_opt (fun s -> s.s_name = name) selfs with
  | Some s -> s.s_self_ns
  | None -> 0.

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* One JSON document per traced pass: spans (times relative to the
   earliest span), aggregates and the derived self times. *)
let to_json cal t (selfs, remainder_ns) =
  let spans = List.rev t.spans in
  let origin = List.fold_left (fun acc s -> min acc s.start_ns) max_int spans in
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "{\"clock\":{\"empty_ns\":%.2f,\"inner_ns\":%.2f},\"spans\":["
    cal.empty_ns cal.inner_ns;
  List.iteri
    (fun i s ->
      Printf.bprintf b
        "%s{\"id\":%d,\"name\":%s,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d,\
         \"hot_ns\":%d,\"hot_calls\":%d}"
        (if i = 0 then "" else ",")
        s.id (json_string s.name) s.parent (s.start_ns - origin)
        (s.stop_ns - origin) s.agg_ns s.agg_calls)
    spans;
  Buffer.add_string b "],\"aggregates\":[";
  List.iteri
    (fun i a ->
      Printf.bprintf b "%s{\"name\":%s,\"count\":%d,\"total_ns\":%d}"
        (if i = 0 then "" else ",")
        (json_string a.a_name) a.count a.total_ns)
    (List.rev t.aggs);
  Buffer.add_string b "],\"self\":[";
  List.iteri
    (fun i s ->
      Printf.bprintf b "%s{\"name\":%s,\"count\":%d,\"self_ns\":%.0f}"
        (if i = 0 then "" else ",")
        (json_string s.s_name) s.s_count s.s_self_ns)
    selfs;
  Printf.bprintf b "],\"remainder_ns\":%.0f}" remainder_ns;
  Buffer.contents b

(* Move [delta_ns] into (or, negative, out of) one name's self time. *)
let adjust selfs name delta_ns =
  List.map
    (fun s -> if s.s_name = name then { s with s_self_ns = s.s_self_ns +. delta_ns } else s)
    selfs

let prefix_ns selfs prefix =
  List.fold_left
    (fun acc s -> if String.starts_with ~prefix s.s_name then acc +. s.s_self_ns else acc)
    0. selfs

(* Summed duration of the spans with this name. *)
let total_ns t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. float_of_int (s.stop_ns - s.start_ns) else acc)
    0. t.spans

(* Duration of the (single) root span with this name. *)
let span_ns t name =
  match List.find_opt (fun s -> s.name = name && s.parent = -1) t.spans with
  | Some s -> float_of_int (s.stop_ns - s.start_ns)
  | None -> nan

(* Wall time covered by the union of the spans [remote] selects. *)
let remote_cover t remote =
  let iv =
    List.filter_map
      (fun s -> if remote s.name then Some (s.start_ns, s.stop_ns) else None)
      t.spans
  in
  float_of_int (covered ~lo:min_int ~hi:max_int iv)
