(* Benchmark harness for the substrate.

   Part 1 runs bechamel microbenchmarks over the simulator's hot paths so
   performance regressions in the substrate are visible, plus the runner
   pool's serial-vs-forked speedup on the E18 quick jobs.

   Part 2 is the macro throughput benchmark: simulated-seconds/sec,
   packets/sec and GC pressure on a canonical 1 s Reno run, written to
   BENCH_simulator.json.  Its gated figures are ratios of two timings
   taken in the same process, never comparisons with a number recorded
   on another machine.

   The paper's tables come from `repro --all` and the figure series from
   `starvation_lab figures` / `export`; this harness only times the
   machinery.  Pass --quick for shortened runs, --macro to run only the
   macro benchmark (the CI bench-smoke entry point). *)

let quick = Array.exists (fun a -> a = "--quick") Sys.argv
let macro_only = Array.exists (fun a -> a = "--macro") Sys.argv

(* ------------------------------------------------------------------ *)
(* Part 1: bechamel microbenchmarks                                    *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

let bench_event_queue () =
  let eq = Sim.Event_queue.create () in
  for i = 1 to 1000 do
    Sim.Event_queue.schedule eq ~at:(float_of_int i) (fun () -> ())
  done;
  Sim.Event_queue.run eq

let bench_series () =
  let s = Sim.Series.create () in
  for i = 0 to 999 do
    Sim.Series.add s ~time:(float_of_int i) (float_of_int (i mod 17))
  done;
  ignore (Sim.Series.integral s ~t0:0. ~t1:999.)

let synthetic_ack now : Cca.ack_info =
  {
    Cca.now;
    rtt = 0.05 +. (0.001 *. Float.rem now 0.01);
    acked_bytes = 1500;
    sent_time = now -. 0.05;
    delivered = int_of_float (now *. 1e6);
    delivered_now = int_of_float (now *. 1e6) + 1500;
    inflight = 30_000;
    app_limited = false;
    ecn_ce = false;
  }

let bench_cca make =
  let cca = make () in
  let now = ref 0. in
  fun () ->
    for _ = 1 to 100 do
      now := !now +. 0.001;
      cca.Cca.on_ack (synthetic_ack !now)
    done

let bench_drr_link () =
  let eq = Sim.Event_queue.create () in
  let link =
    Sim.Link.create ~eq ~rate:(Sim.Link.Constant 1.5e6)
      ~discipline:(Sim.Link.Drr { quantum = 1500 }) ~record_queue:false ()
  in
  Sim.Link.set_on_dequeue link (fun _ -> ());
  for i = 0 to 499 do
    ignore
      (Sim.Link.enqueue link
         {
           Sim.Packet.flow = i mod 4;
           seq = i;
           size = 1500;
           sent_at = 0.;
           delivered_at_send = 0;
           app_limited = false;
           ce = false;
         })
  done;
  Sim.Event_queue.run eq

let bench_opportunity_lookup () =
  let trace =
    Sim.Link.Opportunities
      { times = Array.init 1000 (fun i -> float_of_int i /. 1000.); period = 1.;
        bytes = 1500 }
  in
  let t = ref 0. in
  for _ = 1 to 1000 do
    t := Sim.Link.transmit_end trace ~start:!t ~bytes:1500
  done

let trivial_jobs n =
  List.init n (fun i ->
      Runner.Job.create ~key:(Printf.sprintf "bench/trivial/%d" i) (fun () -> i))

let bench_pool_serial () = ignore (Runner.Pool.run_results (trivial_jobs 32))

let bench_pool_forked () =
  (* Dominated by fork + pipe roundtrips: the pool's fixed overhead,
     i.e. how small a job is still worth dispatching. *)
  ignore (Runner.Pool.run_results ~workers:4 (trivial_jobs 32))

let bench_small_sim () =
  let rate = Sim.Units.mbps 12. in
  let cfg =
    Sim.Network.config ~rate:(Sim.Link.Constant rate)
      ~buffer:(Sim.Units.bdp_bytes ~rate ~rtt:0.04) ~rm:0.04 ~duration:1.
      [ Sim.Network.flow (Reno.make ()) ]
  in
  ignore (Sim.Network.run_config cfg)

let bench_faulted_sim () =
  (* Same 1 s Reno run, but through a blackout + bursty-loss fault plan
     with the invariant monitor auditing at 10 ms: the price of the
     robustness layer on the hot path. *)
  let rate = Sim.Units.mbps 12. in
  let faults =
    Sim.Fault.plan
      [
        Sim.Fault.Link_blackout { t0 = 0.4; t1 = 0.55 };
        Sim.Fault.Bursty_loss
          { flow = 0; t0 = 0.; t1 = 1.; p_enter = 0.02; p_exit = 0.3;
            loss_good = 0.; loss_bad = 0.3 };
      ]
  in
  let cfg =
    Sim.Network.config ~rate:(Sim.Link.Constant rate)
      ~buffer:(Sim.Units.bdp_bytes ~rate ~rtt:0.04) ~rm:0.04 ~duration:1.
      ~faults ~monitor_period:0.01
      [ Sim.Network.flow (Reno.make ()) ]
  in
  ignore (Sim.Network.run_config cfg)

let microbenches () =
  let tests =
    [
      Test.make ~name:"event queue 1k events" (Staged.stage bench_event_queue);
      Test.make ~name:"series add+integral 1k" (Staged.stage bench_series);
      Test.make ~name:"vegas 100 acks" (Staged.stage (bench_cca (fun () -> Vegas.make ())));
      Test.make ~name:"copa 100 acks" (Staged.stage (bench_cca (fun () -> Copa.make ())));
      Test.make ~name:"bbr 100 acks" (Staged.stage (bench_cca (fun () -> Bbr.make ())));
      Test.make ~name:"cubic 100 acks" (Staged.stage (bench_cca (fun () -> Cubic.make ())));
      Test.make ~name:"reno 1s simulated" (Staged.stage bench_small_sim);
      Test.make ~name:"reno 1s faulted+monitored" (Staged.stage bench_faulted_sim);
      Test.make ~name:"drr link 500 pkts" (Staged.stage bench_drr_link);
      Test.make ~name:"opportunity lookup 1k" (Staged.stage bench_opportunity_lookup);
      Test.make ~name:"pool 32 jobs serial" (Staged.stage bench_pool_serial);
      Test.make ~name:"pool 32 jobs 4 workers" (Staged.stage bench_pool_forked);
    ]
  in
  let grouped = Test.make_grouped ~name:"substrate" tests in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "\n== Substrate microbenchmarks (monotonic clock) ==\n";
  Printf.printf "%-36s %14s\n" "benchmark" "time/run";
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, v) ->
         match Analyze.OLS.estimates v with
         | Some (ns :: _) ->
             let pretty =
               if ns > 1e9 then Printf.sprintf "%.3f s" (ns /. 1e9)
               else if ns > 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
               else if ns > 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
               else Printf.sprintf "%.1f ns" ns
             in
             Printf.printf "%-36s %14s\n" name pretty
         | _ -> Printf.printf "%-36s %14s\n" name "n/a")

(* The acceptance measurement for the runner: the same job list, serial
   vs a 4-worker pool, on real simulations (the E18 quick matrix). *)
let pool_speedup () =
  let jobs, _ = Experiments.Exp_faults.plan ~quick:true in
  let time f =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  let serial = time (fun () -> Runner.Pool.run_results jobs) in
  let forked = time (fun () -> Runner.Pool.run_results ~workers:4 jobs) in
  Printf.printf "\n== Runner pool speedup (%d E18-quick jobs, %d cores) ==\n"
    (List.length jobs)
    (Runner.Pool.default_workers ());
  Printf.printf "serial %.2f s, 4 workers %.2f s: %.1fx speedup\n" serial forked
    (serial /. forked)

(* ------------------------------------------------------------------ *)
(* Part 2: macro throughput benchmark                                  *)
(* ------------------------------------------------------------------ *)

let macro_config () =
  let rate = Sim.Units.mbps 12. in
  Sim.Network.config ~rate:(Sim.Link.Constant rate)
    ~buffer:(Sim.Units.bdp_bytes ~rate ~rtt:0.04) ~rm:0.04 ~duration:1.
    [ Sim.Network.flow (Reno.make ()) ]

(* Peak event-queue occupancy on a 2-flow run: with per-flow delay lines
   this stays O(flows + link), independent of the bandwidth-delay
   product, where per-packet scheduling scaled with packets in flight. *)
let macro_peak_pending () =
  let rate = Sim.Units.mbps 12. in
  let cfg =
    Sim.Network.config ~rate:(Sim.Link.Constant rate)
      ~buffer:(Sim.Units.bdp_bytes ~rate ~rtt:0.04) ~rm:0.04 ~duration:1.
      [ Sim.Network.flow (Reno.make ()); Sim.Network.flow (Reno.make ()) ]
  in
  let net = Sim.Network.build cfg in
  let eq = Sim.Network.event_queue net in
  let peak = ref 0 in
  while Sim.Event_queue.now eq < 1.0 && Sim.Event_queue.step eq do
    peak := max !peak (Sim.Event_queue.pending eq)
  done;
  !peak

let write_bench_json path fields =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\n";
      List.iteri
        (fun i (k, v) ->
          Printf.fprintf oc "  %S: %s%s\n" k v
            (if i = List.length fields - 1 then "" else ","))
        fields;
      output_string oc "}\n")

(* Checkpointing overhead: the same canonical Reno run, plain vs paused
   every [interval] simulated seconds for a full capture (state hash +
   closure-carrying serialization).  Series recording is off so the
   snapshot payload reflects live simulator state, not trace length, and
   best-of-3 timing keeps scheduler noise out of a ratio the CI gate
   compares against 5%.  The scenario is a fast link with a short RTT
   (192 Mbit/s, 10 ms, a checkpoint per simulated second): a capture's
   price scales with the in-flight state it must hash and serialize,
   the run's with the packets it simulates, so this is the regime where
   the ratio is a property of the checkpoint machinery rather than of
   an artificially idle simulation. *)
let snapshot_interval = 1.0

let snapshot_overhead () =
  let rate = Sim.Units.mbps 192. in
  let duration = if quick then 2.0 else 4.0 in
  let reps = if quick then 4 else 6 in
  let cfg () =
    Sim.Network.config ~rate:(Sim.Link.Constant rate)
      ~buffer:(Sim.Units.bdp_bytes ~rate ~rtt:0.01) ~rm:0.01 ~duration
      [ Sim.Network.flow ~record_series:false (Reno.make ()) ]
  in
  let pkts = ref 0 in
  let plain () =
    pkts := 0;
    for _ = 1 to reps do
      let net = Sim.Network.run_config (cfg ()) in
      pkts := !pkts + (Sim.Flow.delivered_bytes (Sim.Network.flows net).(0) / 1500)
    done
  in
  let checkpoints = ref 0 in
  let snapshotted () =
    checkpoints := 0;
    for _ = 1 to reps do
      let net = Sim.Network.build (cfg ()) in
      ignore
        (Sim.Snapshot.run_with_checkpoints ~interval:snapshot_interval
           ~on_checkpoint:(fun _ -> incr checkpoints)
           net)
    done
  in
  (* Warm both paths, then time them interleaved from the same GC state:
     the two loops differ by a few hundred microseconds per run, which
     back-to-back timing would bury under collector debt accumulated by
     whichever loop happens to run first. *)
  plain ();
  snapshotted ();
  let t_plain = ref infinity and t_snap = ref infinity in
  for _ = 1 to 5 do
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    plain ();
    t_plain := Float.min !t_plain (Unix.gettimeofday () -. t0);
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    snapshotted ();
    t_snap := Float.min !t_snap (Unix.gettimeofday () -. t0)
  done;
  let t_plain = !t_plain and t_snap = !t_snap in
  let pps_plain = float_of_int !pkts /. t_plain in
  let pps_snap = float_of_int !pkts /. t_snap in
  let overhead = (t_snap /. t_plain) -. 1. in
  ( pps_plain,
    pps_snap,
    overhead,
    !checkpoints / reps )

(* Invariant-monitor (oracle) overhead: the same canonical Reno run with
   the audit closure off vs auditing every 10 ms of simulated time.  The
   audit walks the conservation identities (link, per-flow, end-to-end)
   plus the clock/queue/jitter checks, so this prices the whole oracle
   layer as experienced by a monitored experiment; validation off must
   stay within the CI gate (<= 10%).  Interleaved best-of-5 timing, same
   rationale as [snapshot_overhead]. *)
let monitor_period = 0.01

let oracle_overhead () =
  let rate = Sim.Units.mbps 192. in
  let duration = if quick then 2.0 else 4.0 in
  let reps = if quick then 4 else 6 in
  let cfg ~monitored () =
    Sim.Network.config ~rate:(Sim.Link.Constant rate)
      ~buffer:(Sim.Units.bdp_bytes ~rate ~rtt:0.01) ~rm:0.01 ~duration
      ?monitor_period:(if monitored then Some monitor_period else None)
      [ Sim.Network.flow ~record_series:false (Reno.make ()) ]
  in
  let pkts = ref 0 in
  let run ~monitored () =
    pkts := 0;
    for _ = 1 to reps do
      let net = Sim.Network.run_config (cfg ~monitored ()) in
      pkts := !pkts + (Sim.Flow.delivered_bytes (Sim.Network.flows net).(0) / 1500)
    done
  in
  let plain () = run ~monitored:false () in
  let monitored () = run ~monitored:true () in
  plain ();
  monitored ();
  let t_plain = ref infinity and t_mon = ref infinity in
  for _ = 1 to 5 do
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    plain ();
    t_plain := Float.min !t_plain (Unix.gettimeofday () -. t0);
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    monitored ();
    t_mon := Float.min !t_mon (Unix.gettimeofday () -. t0)
  done;
  let pps_plain = float_of_int !pkts /. !t_plain in
  let pps_mon = float_of_int !pkts /. !t_mon in
  let overhead = (!t_mon /. !t_plain) -. 1. in
  (pps_plain, pps_mon, overhead)

(* Flow-churn throughput: completed flows per wall-clock second on the
   census workload shape (Poisson arrivals over 60% of the horizon,
   Pareto(1.5) sizes, one shared bottleneck), measured under both
   scheduler backends at a small and a large population.  At 8 flows the
   backends should be comparable — the wheel must not tax the common
   case; at the census population the heap pays O(log n) per re-arm
   against the wheel's O(1), which is the whole point of the wheel.
   The CI gate compares the measured wheel/heap ratio at the large
   population against the recorded baseline ratio: like the other
   gates, a ratio from one process is robust to CI machine noise where
   absolute flows/sec are not.  --quick runs a 20k population whose
   heap is two sift levels shallower, so its recorded ratio is lower
   than the full 100k one. *)
let churn_baseline_wheel_over_heap_big = if quick then 2.6 else 3.2
let churn_baseline_commit = "main@2a06121"

let churn_config ~backend ~n ~seed =
  let rate = Sim.Units.mbps 480. in
  let xm = 15_000. in
  let mean_size = 3. *. xm in
  let duration =
    Float.max 2. (float_of_int n *. mean_size /. (0.7 *. rate *. 0.6))
  in
  let population =
    Sim.Population.draw ~seed ~key:"bench/churn" ~n ~window:(0.6 *. duration)
      ~alpha:1.5 ~xm ~size_cap:10_000_000
  in
  let specs =
    List.init n (fun _ ->
        let start_time, size = Sim.Population.next population in
        Sim.Network.flow ~start_time ~record_series:false ~size_bytes:size
          (Reno.make ()))
  in
  Sim.Network.config ~rate:(Sim.Link.Constant rate) ~rm:0.02 ~seed ~duration
    ~backend specs

let churn_rate ~backend ~n ~reps =
  let completed = ref 0 in
  let t0 = Unix.gettimeofday () in
  for r = 1 to reps do
    let net = Sim.Network.run_config (churn_config ~backend ~n ~seed:(42 + r)) in
    Array.iter
      (fun f -> if Sim.Flow.completed f then incr completed)
      (Sim.Network.flows net)
  done;
  float_of_int !completed /. (Unix.gettimeofday () -. t0)

let churn_bench () =
  let n_big = if quick then 20_000 else 100_000 in
  let reps_small = if quick then 500 else 1_500 in
  let rounds = if quick then 3 else 5 in
  let wheel = Sim.Event_queue.Wheel and heap = Sim.Event_queue.Heap in
  (* Warm code paths and heap sizing, then interleave wheel/heap within
     each best-of round — same rationale as [snapshot_overhead]: clock
     drift and background load hit both backends equally. *)
  ignore (churn_rate ~backend:wheel ~n:8 ~reps:2);
  ignore (churn_rate ~backend:heap ~n:8 ~reps:2);
  let best_pair fw fh =
    let w = ref 0. and h = ref 0. in
    for _ = 1 to rounds do
      Gc.full_major ();
      w := Float.max !w (fw ());
      Gc.full_major ();
      h := Float.max !h (fh ())
    done;
    (!w, !h)
  in
  let fps_wheel_small, fps_heap_small =
    best_pair
      (fun () -> churn_rate ~backend:wheel ~n:8 ~reps:reps_small)
      (fun () -> churn_rate ~backend:heap ~n:8 ~reps:reps_small)
  in
  let fps_wheel_big, fps_heap_big =
    best_pair
      (fun () -> churn_rate ~backend:wheel ~n:n_big ~reps:1)
      (fun () -> churn_rate ~backend:heap ~n:n_big ~reps:1)
  in
  Printf.printf "\n== Flow churn (completed flows/sec, wheel vs heap) ==\n";
  Printf.printf "%-34s %12s %12s %8s\n" "population" "heap" "wheel" "ratio";
  Printf.printf "%-34s %12.0f %12.0f %7.2fx\n" "8 flows" fps_heap_small
    fps_wheel_small (fps_wheel_small /. fps_heap_small);
  Printf.printf "%-34s %12.0f %12.0f %7.2fx\n"
    (Printf.sprintf "%d flows" n_big)
    fps_heap_big fps_wheel_big
    (fps_wheel_big /. fps_heap_big);
  (n_big, fps_wheel_small, fps_heap_small, fps_wheel_big, fps_heap_big)

(* Wheel/heap crossover sweep: the same churn workload at geometrically
   spaced populations, wheel vs heap interleaved per round.  The
   crossover is the smallest population where the wheel is at least 5%
   ahead — below it the lazy small-queue bypass keeps the wheel backend
   on the plain heap path, so the two must be statistically identical;
   above it the heap pays O(log n) per re-arm.  Per-point reps equalize
   total flows so the small populations are not all fork/setup noise. *)
let crossover_bench () =
  let pops = [ 8; 32; 128; 512; 2048; 8192 ] in
  let rounds = if quick then 2 else 3 in
  let reps n = max 1 (8192 / n) in
  let wheel = Sim.Event_queue.Wheel and heap = Sim.Event_queue.Heap in
  ignore (churn_rate ~backend:wheel ~n:8 ~reps:2);
  ignore (churn_rate ~backend:heap ~n:8 ~reps:2);
  Printf.printf "\n== Wheel/heap crossover sweep (completed flows/sec) ==\n";
  Printf.printf "%-34s %12s %12s %8s\n" "population" "heap" "wheel" "ratio";
  let ratios =
    List.map
      (fun n ->
        let w = ref 0. and h = ref 0. in
        for _ = 1 to rounds do
          Gc.full_major ();
          w := Float.max !w (churn_rate ~backend:wheel ~n ~reps:(reps n));
          Gc.full_major ();
          h := Float.max !h (churn_rate ~backend:heap ~n ~reps:(reps n))
        done;
        let ratio = !w /. !h in
        Printf.printf "%-34d %12.0f %12.0f %7.2fx\n" n !h !w ratio;
        (n, ratio))
      pops
  in
  (* The crossover is where the advantage becomes sustained: the first
     population after the last sub-threshold reading.  A single noisy
     high ratio at a small population (where each measurement is tens of
     milliseconds) must not register as the wheel "winning" below its
     bypass threshold. *)
  let crossover =
    match
      List.fold_left
        (fun acc (n, ratio) -> if ratio < 1.05 then Some n else acc)
        None ratios
    with
    | None -> List.hd pops
    | Some last_below -> (
        match List.find_opt (fun (n, _) -> n > last_below) ratios with
        | Some (n, _) -> n
        | None -> 0)
  in
  Printf.printf "crossover population (wheel >= 1.05x sustained): %d\n" crossover;
  crossover

(* The fix behind the old 0.99x wheel-vs-heap reading at 8 flows: with
   the lazy small-queue bypass the wheel backend must never allocate its
   wheel on a small population — pending events stay under the bypass
   threshold, so the backend runs the identical heap path plus one
   integer compare.  Verified structurally, not statistically. *)
let wheel_bypass_at_8 () =
  let cfg = churn_config ~backend:Sim.Event_queue.Wheel ~n:8 ~seed:7 in
  let net = Sim.Network.build cfg in
  ignore (Sim.Network.run net);
  not (Sim.Event_queue.wheel_allocated (Sim.Network.event_queue net))

(* Census-at-scale benchmark: one full standard census cell (Reno,
   columnar state, 20 ms ACK jitter — the same constants as
   Experiments.Exp_census) measured for wall-clock throughput and
   resident memory.  bytes/flow is the live-words delta, holding the
   complete census result (recycled flow table + goodput column), over
   the whole population: the number that says a million-flow census fits
   one machine because quiesced flows cost tens of bytes, not a struct
   of Series.  The goodput column alone is 8 bytes/flow, so the flow
   table is doing well if the total stays two digits. *)
let census_bench () =
  let n = if quick then 100_000 else 1_000_000 in
  let rate = Sim.Units.mbps 480. in
  let cfg =
    {
      Sim.Population.n;
      duration = Float.max 5. (float_of_int n *. 45_000. /. (0.7 *. rate *. 0.6));
      arrival_frac = 0.6;
      rate;
      buffer = None;
      rm = 0.02;
      mss = 1500;
      jitter_d = 0.02;
      seed = 42;
      key = Printf.sprintf "census/std/reno/jit=20ms/n=%d" n;
      alpha = 1.5;
      xm = 15_000.;
      size_cap = 10_000_000;
    }
  in
  let cols = Columns.create ~nfields:Reno.nfields () in
  let cca ~slot:_ ~prev =
    match prev with
    | Some i -> (
        match i.Cca.reset with
        | Some r ->
            r ();
            i
        | None -> assert false)
    | None -> Reno.make_in cols
  in
  Gc.compact ();
  let base_live = (Gc.stat ()).Gc.live_words in
  let t0 = Unix.gettimeofday () in
  let r = Sim.Population.run ~cca cfg in
  let wall = Unix.gettimeofday () -. t0 in
  Gc.full_major ();
  let live_delta = (Gc.stat ()).Gc.live_words - base_live in
  let bytes_per_flow = float_of_int (live_delta * 8) /. float_of_int n in
  let flows_per_sec = float_of_int n /. wall in
  let summary = Sim.Stats.ratio_summary_in_place r.Sim.Population.goodputs in
  Printf.printf "\n== Census at scale (std cell, reno, columnar, 20 ms jitter) ==\n";
  Printf.printf "%-34s %25d\n" "flows" n;
  Printf.printf "%-34s %25.1f\n" "wall seconds" wall;
  Printf.printf "%-34s %25.0f\n" "flows/sec" flows_per_sec;
  Printf.printf "%-34s %25d\n" "completed" r.Sim.Population.completed;
  Printf.printf "%-34s %25d\n" "starved" summary.Sim.Stats.starved;
  Printf.printf "%-34s %25d\n" "flow slots (peak concurrency)" r.Sim.Population.slots;
  Printf.printf "%-34s %25d\n" "peak pending events" r.Sim.Population.peak_pending;
  Printf.printf "%-34s %25d\n" "live words (result held)" live_delta;
  Printf.printf "%-34s %25.1f\n" "bytes/flow" bytes_per_flow;
  (n, wall, flows_per_sec, bytes_per_flow, live_delta, r.Sim.Population.completed,
   summary.Sim.Stats.starved, r.Sim.Population.slots)

(* Fluid backend speedup: the E14 threshold sweep (quick shape: 4 jitter
   multipliers x 20 simulated seconds of two Copa flows) on the packet
   simulator vs the discretised fluid backend.  Interleaved best-of
   timing, same rationale as [snapshot_overhead]; the fluid sweep is
   sub-millisecond, far below timer resolution, so each fluid sample
   times a batch of sweeps and divides.  The acceptance gate holds the
   ratio at >= 10x — the whole point of the fluid backend is that sweeps
   and censuses stop being the expensive part of an experiment run. *)
let fluid_sweep_sim_seconds = 4. *. 20.

let fluid_speedup_bench () =
  let sweep backend () =
    ignore (Experiments.Exp_threshold.sweep ~quick:true ~backend ())
  in
  sweep Fluid.Backend.Packet ();
  sweep Fluid.Backend.Fluid ();
  let fluid_reps = 50 in
  let t_packet = ref infinity and t_fluid = ref infinity in
  for _ = 1 to 3 do
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    sweep Fluid.Backend.Packet ();
    t_packet := Float.min !t_packet (Unix.gettimeofday () -. t0);
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to fluid_reps do
      sweep Fluid.Backend.Fluid ()
    done;
    t_fluid :=
      Float.min !t_fluid
        ((Unix.gettimeofday () -. t0) /. float_of_int fluid_reps)
  done;
  let speedup = !t_packet /. !t_fluid in
  let sim_per_sec = fluid_sweep_sim_seconds /. !t_fluid in
  Printf.printf "\n== Fluid backend speedup (E14 quick sweep) ==\n";
  Printf.printf "%-34s %12.4f s\n" "packet sweep (best of 3)" !t_packet;
  Printf.printf "%-34s %12.6f s\n"
    (Printf.sprintf "fluid sweep (best of 3 x %d)" fluid_reps)
    !t_fluid;
  Printf.printf "%-34s %11.1fx\n" "speedup" speedup;
  Printf.printf "%-34s %12.0f\n" "fluid simulated seconds/sec" sim_per_sec;
  (!t_packet, !t_fluid, speedup, sim_per_sec)

let macro_bench () =
  let cfg = macro_config () in
  (* Warm up: code paths, minor heap sizing, series growth. *)
  ignore (Sim.Network.run_config cfg);
  let reps = if quick then 5 else 30 in
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let pkts = ref 0 in
  let fallbacks = ref 0 in
  for _ = 1 to reps do
    let net = Sim.Network.run_config cfg in
    let f = (Sim.Network.flows net).(0) in
    pkts := !pkts + (Sim.Flow.delivered_bytes f / 1500);
    fallbacks := !fallbacks + Sim.Network.delay_line_fallbacks net
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let minor = Gc.minor_words () -. w0 in
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
  let packets_per_sec = float_of_int !pkts /. dt in
  let words_per_pkt = minor /. float_of_int !pkts in
  let sim_sec_per_sec = float_of_int reps /. dt in
  let peak_pending = macro_peak_pending () in
  Printf.printf "\n== Macro simulator benchmark (1 s Reno run x %d) ==\n" reps;
  Printf.printf "%-34s %25.0f\n" "packets/sec" packets_per_sec;
  Printf.printf "%-34s %25.1f\n" "GC minor words/packet" words_per_pkt;
  Printf.printf "%-34s %25d\n" "peak pending events (2 flows)" peak_pending;
  Printf.printf "%-34s %25.1f\n" "simulated seconds/sec" sim_sec_per_sec;
  Printf.printf "%-34s %25d\n" "delay-line fallbacks" !fallbacks;
  let pps_plain, pps_snap, overhead, per_run = snapshot_overhead () in
  Printf.printf "%-34s %12.0f %12.0f %6.1f%%\n"
    (Printf.sprintf "checkpoints every %gs: pkts/sec" snapshot_interval)
    pps_plain pps_snap (overhead *. 100.);
  Printf.printf "%-34s %25d\n" "checkpoints per run" per_run;
  let pps_unmon, pps_mon, oracle_frac = oracle_overhead () in
  Printf.printf "%-34s %12.0f %12.0f %6.1f%%\n"
    (Printf.sprintf "invariant audit every %gs: pkts/sec" monitor_period)
    pps_unmon pps_mon (oracle_frac *. 100.);
  let churn_n, fps_wheel_small, fps_heap_small, fps_wheel_big, fps_heap_big =
    churn_bench ()
  in
  let wheel_over_heap_small = fps_wheel_small /. fps_heap_small in
  let wheel_over_heap_big = fps_wheel_big /. fps_heap_big in
  let crossover = crossover_bench () in
  let bypass_8 = wheel_bypass_at_8 () in
  Printf.printf "wheel lazy bypass at 8 flows: %b\n" bypass_8;
  let ( census_n, census_wall, fps_census, census_bytes_per_flow,
        census_live_words, census_completed, census_starved, census_slots ) =
    census_bench ()
  in
  let t_sweep_packet, t_sweep_fluid, fluid_speedup, fluid_sim_per_sec =
    fluid_speedup_bench ()
  in
  let json = "BENCH_simulator.json" in
  write_bench_json json
    [
      ("benchmark", "\"simulator_macro\"");
      ("mode", if quick then "\"quick\"" else "\"full\"");
      ("reps", string_of_int reps);
      ("simulated_seconds_per_sec", Printf.sprintf "%.1f" sim_sec_per_sec);
      ("packets_per_sec", Printf.sprintf "%.1f" packets_per_sec);
      ("minor_words_per_packet", Printf.sprintf "%.2f" words_per_pkt);
      ("top_heap_words", string_of_int top_heap);
      ("peak_pending_events_2flow", string_of_int peak_pending);
      ("delay_line_fallbacks", string_of_int !fallbacks);
      ("snapshot_interval_sim_sec", Printf.sprintf "%g" snapshot_interval);
      ("snapshot_checkpoints_per_run", string_of_int per_run);
      ("packets_per_sec_no_snapshots", Printf.sprintf "%.1f" pps_plain);
      ("packets_per_sec_with_snapshots", Printf.sprintf "%.1f" pps_snap);
      ("snapshot_overhead_frac", Printf.sprintf "%.4f" overhead);
      ("monitor_period_sim_sec", Printf.sprintf "%g" monitor_period);
      ("packets_per_sec_unmonitored", Printf.sprintf "%.1f" pps_unmon);
      ("packets_per_sec_monitored", Printf.sprintf "%.1f" pps_mon);
      ("oracle_overhead_frac", Printf.sprintf "%.4f" oracle_frac);
      ("churn_population", string_of_int churn_n);
      ("flows_per_sec", Printf.sprintf "%.1f" fps_wheel_big);
      ("flows_per_sec_wheel_8", Printf.sprintf "%.1f" fps_wheel_small);
      ("flows_per_sec_heap_8", Printf.sprintf "%.1f" fps_heap_small);
      ("flows_per_sec_wheel_big", Printf.sprintf "%.1f" fps_wheel_big);
      ("flows_per_sec_heap_big", Printf.sprintf "%.1f" fps_heap_big);
      ("wheel_over_heap_small", Printf.sprintf "%.3f" wheel_over_heap_small);
      ("wheel_over_heap_big", Printf.sprintf "%.3f" wheel_over_heap_big);
      ( "baseline_wheel_over_heap_big",
        Printf.sprintf "%.3f" churn_baseline_wheel_over_heap_big );
      ("churn_baseline_commit", Printf.sprintf "%S" churn_baseline_commit);
      ("wheel_heap_crossover_population", string_of_int crossover);
      ("wheel_lazy_bypass_8", if bypass_8 then "true" else "false");
      ("census_population", string_of_int census_n);
      ("census_wall_sec", Printf.sprintf "%.1f" census_wall);
      ("flows_per_sec_census", Printf.sprintf "%.1f" fps_census);
      ("census_completed", string_of_int census_completed);
      ("census_starved", string_of_int census_starved);
      ("census_slots", string_of_int census_slots);
      ("census_live_words", string_of_int census_live_words);
      ("census_bytes_per_flow", Printf.sprintf "%.1f" census_bytes_per_flow);
      ("fluid_sweep_sim_seconds", Printf.sprintf "%g" fluid_sweep_sim_seconds);
      ("fluid_sweep_seconds_packet", Printf.sprintf "%.4f" t_sweep_packet);
      ("fluid_sweep_seconds_fluid", Printf.sprintf "%.6f" t_sweep_fluid);
      ("fluid_speedup_threshold", Printf.sprintf "%.1f" fluid_speedup);
      ("fluid_sim_seconds_per_sec", Printf.sprintf "%.1f" fluid_sim_per_sec);
    ];
  Printf.printf "wrote %s\n" json

let () =
  if macro_only then macro_bench ()
  else begin
    pool_speedup ();
    microbenches ();
    macro_bench ()
  end
