(* Workload [suite]: every registry experiment at --quick scale through
   Experiments.Registry.run_selection on nproc fork workers with a fresh
   cache directory (the cold run, which is the timed part).  The run's
   first pass then replays the same cache warm.  The suite is fixed: it
   takes no seed.

   The traced pass runs run_selection itself, over experiments whose
   plans wrap each job and each merge.  A wrapped job re-creates the
   original under the same key and returns the same payload; in the
   worker that runs it, it also writes its start, stop and CPU seconds
   to a file of its own under the run's scratch directory.  After the
   run the parent reads those files back as Job.force spans. *)

let smoke_keys = [ "fig3"; "alg1" ]

type inputs = {
  dir : string;
  cache : Runner.Cache.t;
  experiments : Experiments.Registry.experiment list;
  workers : int;
  work : string;
}

let counter = ref 0

let populations = 1
let pass_seed ~seed ~population:_ = seed

let setup ~seed:_ ~smoke ~work ~tracer:_ =
  incr counter;
  let dir = Filename.concat work (Printf.sprintf "cache-%d" !counter) in
  Common.rm_rf dir;
  let cache = Runner.Cache.create ~dir () in
  let experiments =
    if smoke then
      List.filter
        (fun e -> List.mem e.Experiments.Registry.key smoke_keys)
        Experiments.Registry.all
    else Experiments.Registry.all
  in
  { dir; cache; experiments; workers = Runner.Pool.default_workers (); work }

let release inp = Common.rm_rf inp.dir

let stdout_file inp name = Filename.concat inp.work name

let cache_entries inp =
  Array.length (Sys.readdir inp.dir)

let run_selection inp experiments =
  Experiments.Registry.run_selection ~quick:true ~workers:inp.workers
    ~cache:inp.cache experiments

(* What a wrapped job writes in the worker that runs it. *)
type job_time = { start_ns : int; stop_ns : int; cpu_s : float }

(* The input's experiments with every job and merge wrapped for
   tracing, and a function that reads back, once run_selection has run
   them, the times of every job that reported, with the key of the
   experiment it belongs to. *)
let traced_experiments t inp =
  let times = Filename.concat inp.work "job-times" in
  Common.rm_rf times;
  Common.mkdir_p times;
  let owners = Hashtbl.create 64 in
  let file key = Filename.concat times (Digest.to_hex (Digest.string key)) in
  let wrap_job owner j =
    let key = Runner.Job.key j in
    Hashtbl.replace owners key owner;
    Runner.Job.create ~key (fun () ->
        let c0 = Common.cpu_now () in
        let start_ns = Trace.now_ns () in
        let payload = Runner.Job.force j in
        let stop_ns = Trace.now_ns () in
        let time = { start_ns; stop_ns; cpu_s = Common.cpu_now () -. c0 } in
        Out_channel.with_open_bin (file key) (fun oc -> Marshal.to_channel oc time []);
        (* The original's result, re-marshalled unchanged by the pool. *)
        (Runner.Job.decode payload : Obj.t))
  in
  let wrap e =
    let plan ~quick ~backend =
      let p = e.Experiments.Registry.plan ~quick ~backend in
      {
        Experiments.Registry.jobs = List.map (wrap_job e.Experiments.Registry.key) p.jobs;
        merge = (fun bs -> Trace.span (Some t) "merge" (fun () -> p.merge bs));
      }
    in
    { e with Experiments.Registry.plan }
  in
  let read_back () =
    Hashtbl.fold
      (fun key owner acc ->
        if not (Sys.file_exists (file key)) then acc
        else
          let time : job_time = In_channel.with_open_bin (file key) Marshal.from_channel in
          (owner, time) :: acc)
      owners []
  in
  (List.map wrap inp.experiments, read_back)

let rows_ok checks rows =
  List.iter
    (fun r ->
      Common.check checks
        (Printf.sprintf "suite row %s %s" r.Experiments.Report.id r.Experiments.Report.label)
        r.Experiments.Report.ok)
    rows

let pass ~cal checks ~tracer ~first inp =
  match tracer with
  | None ->
      let ((rows, stats), out), wall, cpu =
        Common.timed (fun () ->
            Common.capture_stdout (stdout_file inp "cold.out") (fun () ->
                run_selection inp inp.experiments))
      in
      let stores = cache_entries inp in
      rows_ok checks rows;
      Common.check checks "suite: no job quarantined or respawned"
        (stats.Runner.Pool.quarantined = 0 && stats.Runner.Pool.respawns = 0);
      Common.check checks "suite: cold run executes every job"
        (stats.Runner.Pool.executed = stats.Runner.Pool.jobs);
      (* The warm replay runs once per run, so that more cold passes fit
         in one. *)
      let warm =
        if not first then []
        else begin
          let ((_, warm_stats), warm_out), warm_wall, _ =
            Common.timed (fun () ->
                Common.capture_stdout (stdout_file inp "warm.out") (fun () ->
                    run_selection inp inp.experiments))
          in
          Common.check checks "suite: warm replay executes nothing"
            (warm_stats.Runner.Pool.executed = 0);
          Common.check checks "suite: warm replay stdout is byte-identical"
            (String.equal out warm_out);
          [ ("runner_cache.warm_replay_s", warm_wall) ]
        end
      in
      {
        Common.wall;
        cpu;
        notes = [];
        digest = Digest.to_hex (Digest.string out);
        layers =
          warm
          @ [
              ("runner_cache.stores", float_of_int stores);
              ("runner_pool.respawns", float_of_int stats.Runner.Pool.respawns);
            ];
        remainder = 0.;
        trace_json = None;
      }
  | Some t ->
      let experiments, read_back = traced_experiments t inp in
      let ((rows, stats, jobs), out), wall, cpu =
        Common.timed (fun () ->
            Common.capture_stdout (stdout_file inp "traced.out") (fun () ->
                Trace.span tracer "bench.pass" (fun () ->
                    Trace.span tracer "Registry.run_selection" (fun () ->
                        let rows, stats = run_selection inp experiments in
                        (* The workers' spans join the timeline under the
                           call that ran them. *)
                        let jobs = read_back () in
                        List.iter
                          (fun (_, tm) ->
                            Trace.add_span t "Job.force" ~start_ns:tm.start_ns
                              ~stop_ns:tm.stop_ns)
                          jobs;
                        (rows, stats, jobs)))))
      in
      rows_ok checks rows;
      Common.check checks "suite: no job respawned"
        (stats.Runner.Pool.respawns = 0);
      Common.check checks "suite: every job reported its times"
        (List.length jobs = stats.Runner.Pool.jobs);
      let remote n = n = "Job.force" in
      let selfs, clock = Trace.self_times ~remote cal t in
      let cpu_of key =
        List.fold_left (fun acc (k, tm) -> if k = key then acc +. tm.cpu_s else acc) 0. jobs
      in
      let total_cpu = List.fold_left (fun acc (_, tm) -> acc +. tm.cpu_s) 0. jobs in
      let critical =
        List.fold_left
          (fun acc (_, tm) -> Float.max acc (float_of_int (tm.stop_ns - tm.start_ns) *. 1e-9))
          0. jobs
      in
      let layers =
        List.map
          (fun key -> (Printf.sprintf "experiments.%s.cpu_s" key, cpu_of key))
          (Experiments.Registry.keys ())
        @ [
            ("experiments.merge_s", Trace.self_ns selfs "merge" *. 1e-9);
            ("runner_pool.critical_path_s", critical);
            ( "runner_pool.efficiency",
              total_cpu /. (float_of_int inp.workers *. wall) );
            ("runner_pool.respawns", float_of_int stats.Runner.Pool.respawns);
          ]
      in
      Common.traced_pass ~remote ~wall ~cpu
        ~digest:(Digest.to_hex (Digest.string out)) ~layers
        checks cal t (selfs, clock)
