(* The starvation-lab benchmark: one workload per invocation.

     perfbench --workload threshold|census|suite --seed N --seconds S
               --trace 0|1 [--smoke] [--stamp JSON]

   A run makes at least one pass per population of the workload (see
   WORKLOAD.populations), then repeats passes while the next one still
   fits in S seconds.  Each pass runs in its own process: it times the
   workload's set-up several times (setup_s), sets up once more, runs
   the timed part and checks the outputs, and hands the result back.
   With --trace 0 every pass runs untraced and the end-to-end metrics
   are printed; with --trace 1 untraced and traced passes alternate,
   the per-layer metrics are printed and the spans are written to
   .perfbench/trace-<workload>-seed<N>.json.  Every number is a median
   over the passes on each population, averaged over the populations.
   The last line of stdout is the JSON result; everything before it is
   for people. *)

module type WORKLOAD = sig
  type inputs

  val populations : int
  (** How many input draws a run cycles through.  A run makes at least
      this many units, whatever the program's speed, so a faster
      program is measured on the same inputs as a slower one. *)

  val pass_seed : seed:int -> population:int -> int
  (** The seed a pass on the [population]-th draw of a run with [seed]
      runs with. *)

  val setup :
    seed:int -> smoke:bool -> work:string -> tracer:Trace.t option -> inputs

  val release : inputs -> unit

  val pass :
    cal:Trace.calibration ->
    Common.checks ->
    tracer:Trace.t option ->
    first:bool ->
    inputs ->
    Common.pass
  (** [first] is true for the run's first untraced pass only. *)
end

(* Traces and scratch files, relative to the repository root. *)
let out_dir = ".perfbench"

let workloads : (string * (module WORKLOAD)) list =
  [
    ("threshold", (module Wl_threshold));
    ("census", (module Wl_census));
    ("suite", (module Wl_suite));
  ]

let usage () =
  prerr_endline
    "usage: perfbench --workload threshold|census|suite --seed N --seconds S \
     --trace 0|1 [--smoke] [--stamp JSON]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  stamp : string;
  child : bool option;  (* run one pass (traced or not) and report it *)
  first : bool;  (* the child runs the run's first untraced pass *)
  result : string;
}

let parse argv =
  let rec go a = function
    | "--workload" :: w :: rest -> go { a with workload = w } rest
    | "--seed" :: s :: rest -> go { a with seed = int_of_string s } rest
    | "--seconds" :: s :: rest -> go { a with seconds = float_of_string s } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = t = "1" } rest
    | "--smoke" :: rest -> go { a with smoke = true } rest
    | "--stamp" :: s :: rest -> go { a with stamp = s } rest
    | "--child" :: ("0" | "1" as t) :: rest -> go { a with child = Some (t = "1") } rest
    | "--first" :: rest -> go { a with first = true } rest
    | "--result" :: f :: rest -> go { a with result = f } rest
    | [] -> a
    | _ -> usage ()
  in
  try
    go
      { workload = ""; seed = 1; seconds = 30.; trace = false; smoke = false;
        stamp = "{}"; child = None; first = false; result = "" }
      (List.tl (Array.to_list argv))
  with Failure _ -> usage ()

(* Set-up times over at least [min_reps] repetitions, more while they
   take under a tenth of a second in total.  The inputs are thrown
   away: the pass sets up its own. *)
let setup_samples (module W : WORKLOAD) ~seed ~smoke ~work =
  let min_reps = if smoke then 1 else 5 in
  let rec go acc n total =
    if n >= min_reps && (total >= 0.1 || n >= 500 || smoke) then acc
    else begin
      let t0 = Trace.now_ns () in
      let inp = W.setup ~seed ~smoke ~work ~tracer:None in
      let dt = float_of_int (Trace.now_ns () - t0) *. 1e-9 in
      W.release inp;
      go (dt :: acc) (n + 1) (total +. dt)
    end
  in
  go [] 0 0.

(* The major heap's high-water mark, in MB.  OCaml 5 refreshes the
   heap statistics at the end of a major cycle, so finish one first. *)
let peak_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let json_number x = Printf.sprintf "%.17g" (if Float.is_finite x then x else 0.)

(* What one pass, run in its own process, hands back. *)
type child = {
  pass : Common.pass;
  setups : float list;
  checks : Common.checks;
  peak_heap : float;
}

(* Child mode: set up several times (timed), run one pass, report. *)
let child_main (module W : WORKLOAD) a ~traced ~result ~work =
  let cal = Trace.calibrate () in
  let checks = Common.checks () in
  let seed = a.seed and smoke = a.smoke in
  let setups = setup_samples (module W) ~seed ~smoke ~work in
  let tracer = if traced then Some (Trace.create ()) else None in
  let inp = W.setup ~seed ~smoke ~work ~tracer in
  let pass =
    Fun.protect
      ~finally:(fun () -> W.release inp)
      (fun () -> W.pass ~cal checks ~tracer ~first:a.first inp)
  in
  let r = { pass; setups; checks; peak_heap = peak_heap_mb () } in
  Out_channel.with_open_bin result (fun oc -> Marshal.to_channel oc r [])

(* Every pass runs in a fresh process.  Timings of memory-bound passes
   differ by several percent from one process to the next (where the
   heap lands) while staying steady within one, so the median over
   passes only settles when each pass gets its own process. *)
let run_child a ~seed ~traced ~first ~work ~index =
  let result = Filename.concat work (Printf.sprintf "pass-%d.bin" index) in
  let args =
    [ Sys.executable_name; "--workload"; a.workload; "--seed"; string_of_int seed;
      "--child"; (if traced then "1" else "0"); "--result"; result ]
    @ (if a.smoke then [ "--smoke" ] else [])
    @ if first then [ "--first" ] else []
  in
  flush stdout;
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stderr
      Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 ->
      let r : child = In_channel.with_open_bin result (fun ic -> Marshal.from_channel ic) in
      Sys.remove result;
      Ok r
  | _, (Unix.WEXITED n | Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      Error (Printf.sprintf "pass process %d exited with status %d" index n)

let () =
  let a = parse Sys.argv in
  let (module W : WORKLOAD) =
    match List.assoc_opt a.workload workloads with
    | Some w -> w
    | None -> usage ()
  in
  let work = Filename.concat out_dir (Printf.sprintf "work-%d" (Unix.getpid ())) in
  Common.mkdir_p (Filename.concat work "tmp");
  (* Job stdout captures and cache temp files stay inside the checkout. *)
  Filename.set_temp_dir_name (Filename.concat work "tmp");
  let main_pid = Unix.getpid () in
  at_exit (fun () -> if Unix.getpid () = main_pid then Common.rm_rf work);
  (match a.child with
  | Some traced ->
      child_main (module W) a ~traced ~result:a.result ~work;
      exit 0
  | None -> ());
  let checks = Common.checks () in
  let count = ref 0 in
  let run ~seed ~first traced =
    incr count;
    match run_child a ~seed ~traced ~first ~work ~index:!count with
    | Ok c ->
        checks.attempted <- checks.attempted + c.checks.attempted;
        checks.failed <- checks.failed + c.checks.failed;
        checks.notes <- c.checks.notes @ checks.notes;
        [ (seed, c) ]
    | Error e ->
        Common.check checks e false;
        []
  in
  (* One unit is a pass, or an untraced + traced pair with --trace 1;
     both passes of a pair run with the same seed.  Units cycle through
     the workload's populations; a run makes at least one unit per
     population, then more while the next one still fits. *)
  let units = ref 0 in
  let unit_ () =
    let seed = W.pass_seed ~seed:a.seed ~population:(!units mod W.populations) in
    let first = !units = 0 in
    incr units;
    if a.trace then run ~seed ~first false @ run ~seed ~first:false true
    else run ~seed ~first false
  in
  let t_start = Common.now () in
  let rec loop acc durations =
    let elapsed = Common.now () -. t_start in
    let estimate = Common.median durations in
    let fits = elapsed +. estimate <= a.seconds && List.length durations < 60 in
    let covered = List.length durations >= W.populations in
    if durations <> [] && (a.smoke || (covered && not fits)) then acc
    else begin
      let t0 = Common.now () in
      let cs = unit_ () in
      loop (acc @ cs) ((Common.now () -. t0) :: durations)
    end
  in
  let seeded = loop [] [] in
  let children = List.map snd seeded in
  let passes = List.map (fun c -> c.pass) children in
  let untraced = List.filter (fun p -> p.Common.trace_json = None) passes in
  let traced = List.filter (fun p -> p.Common.trace_json <> None) passes in
  let setups = List.concat_map (fun c -> c.setups) children in
  if passes = [] then Common.check checks "at least one pass completed" false;
  List.iter
    (fun (seed, c) ->
      let first = List.assoc seed seeded in
      Common.check checks
        (Printf.sprintf "passes with seed %d (traced or not) produced identical outputs" seed)
        (String.equal c.pass.Common.digest first.pass.Common.digest))
    seeded;
  (* A figure is the mean over the run's populations of its median over
     the passes on each, so every population weighs the same however
     many passes it got.  [f] picks the passes that carry the figure. *)
  let agg f =
    let seeds = List.sort_uniq compare (List.map fst seeded) in
    let per_seed =
      List.filter_map
        (fun seed ->
          match List.filter_map (fun (s, c) -> if s = seed then f c else None) seeded with
          | [] -> None
          | vs -> Some (Common.median vs))
        seeds
    in
    match per_seed with
    | [] -> None
    | vs -> Some (List.fold_left ( +. ) 0. vs /. float_of_int (List.length vs))
  in
  let agg_or_nan f = Option.value (agg f) ~default:nan in
  let is_traced c = c.pass.Common.trace_json <> None in
  let untraced_f f c = if is_traced c then None else Some (f c) in
  let traced_f f c = if is_traced c then Some (f c) else None in
  let wall c = c.pass.Common.wall in
  let metrics =
    if not a.trace then
      [
        ("setup_s", Common.median setups);
        ("wall_s", agg_or_nan (untraced_f wall));
        ("cpu_s", agg_or_nan (untraced_f (fun c -> c.pass.Common.cpu)));
        ("peak_heap_mb", agg_or_nan (untraced_f (fun c -> c.peak_heap)));
      ]
    else begin
      let wall_u = agg_or_nan (untraced_f wall) in
      let wall_t = agg_or_nan (traced_f wall) in
      let remainder = agg_or_nan (traced_f (fun c -> c.pass.Common.remainder)) in
      let derived =
        [
          ("trace.overhead_frac", (wall_t /. wall_u) -. 1.);
          ("trace.unexplained_frac", (wall_t -. remainder -. wall_u) /. wall_u);
        ]
      in
      List.map
        (fun (name, _) ->
          match List.assoc_opt name derived with
          | Some v -> (name, v)
          | None ->
              (* Rates and counters from untraced passes, trace-derived
                 values from traced ones; 0 where this workload does not
                 exercise the layer. *)
              let layer c = List.assoc_opt name c.pass.Common.layers in
              let from_untraced c = if is_traced c then None else layer c in
              let from_traced c = if is_traced c then layer c else None in
              match agg from_untraced with
              | Some v -> (name, v)
              | None -> (name, Option.value (agg from_traced) ~default:0.))
        (Metrics.per_layer ())
    end
  in
  let units = Metrics.end_to_end @ Metrics.per_layer () in
  List.iter
    (fun (name, v) ->
      Common.check checks (Printf.sprintf "metric %s is finite" name) (Float.is_finite v))
    metrics;
  if a.trace then begin
    Common.mkdir_p out_dir;
    let path =
      Filename.concat out_dir
        (Printf.sprintf "trace-%s-seed%d.json" a.workload a.seed)
    in
    Out_channel.with_open_bin path (fun oc ->
        Printf.fprintf oc "{\"stamp\":%s,\"workload\":%s,\"seed\":%d,\"passes\":[%s]}\n"
          a.stamp (Trace.json_string a.workload) a.seed
          (String.concat "," (List.filter_map (fun p -> p.Common.trace_json) traced)));
    Printf.printf "trace written to %s\n" path
  end;
  Printf.printf "perfbench workload=%s seed=%d%s trace=%b passes=%d (untraced %d, traced %d) setups=%d\n"
    a.workload a.seed
    (if a.workload = "suite" then " (the suite takes no seed)" else "")
    a.trace (List.length passes) (List.length untraced) (List.length traced)
    (List.length setups);
  Printf.printf "stamp %s nproc=%d ocaml=%s\n" a.stamp
    (Runner.Pool.default_workers ()) Sys.ocaml_version;
  Printf.printf "failed_frac %g (%d of %d checks failed)\n"
    (float_of_int checks.failed /. float_of_int (max 1 checks.attempted))
    checks.failed checks.attempted;
  List.iter (fun n -> Printf.printf "FAILED: %s\n" n) (List.rev checks.notes);
  (match passes with p :: _ -> List.iter print_endline p.Common.notes | [] -> ());
  Printf.printf "pass walls (s): %s\n"
    (String.concat " "
       (List.map
          (fun p ->
            Printf.sprintf "%.3f%s" p.Common.wall
              (if p.Common.trace_json = None then "" else "t"))
          passes));
  List.iter
    (fun (name, v) -> Printf.printf "  %-36s %18.6g %s\n" name v (List.assoc name units))
    metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (checks.failed = 0) checks.attempted checks.failed
    (String.concat ", "
       (List.map
          (fun (name, v) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Trace.json_string name)
              (json_number v)
              (Trace.json_string (List.assoc name units)))
          metrics))
