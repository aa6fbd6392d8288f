(* Workload [threshold]: the E14 scenario.  Two Copa flows share a
   24 Mbit/s link (Rm 40 ms, unbounded buffer); flow 0's ACK path gains
   a late jitter D = m * delta_max at t = 1 s, for multipliers that
   span the 2 delta_max threshold.  One pass sweeps every point on the
   packet backend (Sim.Network), then on Fluid.Engine, then on
   Fluid.Hybrid.  The fluid sweeps cost a few hundredths of the packet
   sweep, so each repeats a fixed number of times ([fluid_reps],
   [hybrid_reps]) that gives each backend about a quarter of the pass:
   a backend that gets twice as slow then moves wall_s by more than its
   bound.

   E14 is deterministic (a jitter trace, no random loss): the seed only
   reaches the network's RNG, which this scenario never draws from, so
   every seed runs the same inputs.  The points run in ascending D.  The
   order matters: the major heap does not shrink back after the
   deep-queue point, and every point run after it would sweep that
   large heap. *)

let rate = Sim.Units.mbps 24.
let rm = 0.04
let mss = 1500

(* Copa's equilibrium oscillation at the fair share rate/2 (paper
   sec. 2.2: 4 alpha / C), the unit D is measured in. *)
let delta_max = 4. *. float_of_int mss /. (rate /. 2.)
let multipliers = [| 0.25; 0.5; 1.; 2.; 3.; 4.; 6.; 8. |]
let late_jitter d t = if t < 1. then 0. else d
let duration ~smoke = if smoke then 2. else 30.

(* Sized on a 2-core x86-64 host, where one fluid sweep takes ~12 ms,
   one hybrid sweep ~90 ms and the packet sweep ~4.9 s. *)
let fluid_reps ~smoke = if smoke then 2 else 240
let hybrid_reps ~smoke = if smoke then 2 else 32

(* What the traced pass samples, read-only, from the step hook. *)
type probe = {
  mutable events : int;
  mutable pending_sum : int;
  mutable pending_peak : int;
  mutable queue_peak : int;  (* bytes *)
  mutable inflight_peak : int;  (* bytes, any one flow *)
  times : float array;  (* event times, made increasing across points *)
  mutable recorded : int;
}

(* Event times kept for the queue replay: enough for a stable figure,
   bounded at 8 MB of floats. *)
let max_recorded = 1_000_000

(* A packet point's network is dropped once it has run and been
   checked, so later points do not carry its heap. *)
type point = {
  m : float;
  mutable net : Sim.Network.t option;
  mutable hook : (float -> unit) option;
  fluid : Fluid.Engine.config;
  hybrid : Fluid.Hybrid.config;
}

type inputs = {
  smoke : bool;
  duration : float;
  points : point array;  (* in run order *)
  probe : probe;
  cca : Trace.cca_aggs option;
}

(* E14 is deterministic: every pass runs the same inputs. *)
let populations = 1
let pass_seed ~seed ~population:_ = seed

let setup ~seed ~smoke ~work:_ ~tracer =
  let duration = duration ~smoke in
  let cca = Option.map Trace.cca_aggs tracer in
  let copa () =
    let c = Copa.make () in
    match (tracer, cca) with
    | Some t, Some aggs -> Trace.wrap_cca t aggs c
    | _ -> c
  in
  let probe =
    { events = 0; pending_sum = 0; pending_peak = 0; queue_peak = 0;
      inflight_peak = 0;
      times = (if tracer = None then [||] else Array.make max_recorded 0.);
      recorded = 0 }
  in
  let index = ref 0 in
  let point m =
    let d = m *. delta_max in
    let net =
      Sim.Network.build
        (Sim.Network.config ~rate:(Sim.Link.Constant rate) ~rm ~seed ~duration
           [
             Sim.Network.flow ~jitter:(Sim.Jitter.Trace (late_jitter d))
               ~jitter_bound:d (copa ());
             Sim.Network.flow (copa ());
           ])
    in
    let hook =
      if tracer = None then None
      else begin
      let eq = Sim.Network.event_queue net in
      let link = Sim.Network.link net in
      let flows = Sim.Network.flows net in
      let offset = float_of_int !index *. (duration +. 1.) in
      let hook now =
        probe.events <- probe.events + 1;
        if probe.recorded < max_recorded then begin
          probe.times.(probe.recorded) <- offset +. now;
          probe.recorded <- probe.recorded + 1
        end;
        let p = Sim.Event_queue.pending eq in
        probe.pending_sum <- probe.pending_sum + p;
        if p > probe.pending_peak then probe.pending_peak <- p;
        let q = Sim.Link.queued_bytes link in
        if q > probe.queue_peak then probe.queue_peak <- q;
        for i = 0 to Array.length flows - 1 do
          let f = Sim.Flow.inflight flows.(i) in
          if f > probe.inflight_peak then probe.inflight_peak <- f
        done
      in
      Sim.Event_queue.set_step_hook eq (Some hook);
      Some hook
      end
    in
    incr index;
    let law = Ccac.Model.copa_fluid () in
    let fluid =
      Fluid.Engine.config ~rate ~rm ~duration ~measure_from:(duration /. 2.)
        [ Fluid.Engine.flow ~jitter:(late_jitter d) law; Fluid.Engine.flow law ]
    in
    let copa_at ~cwnd =
      Copa.make
        ~params:{ Copa.default_params with init_cwnd_packets = cwnd /. 1500. }
        ()
    in
    let hybrid =
      Fluid.Hybrid.config ~rate ~rm ~duration ~measure_from:(duration /. 2.)
        ~events:[ 1.0 ]
        [
          Fluid.Hybrid.flow ~jitter:(late_jitter d) ~jitter_bound:d
            ~packet_cca:copa_at (Ccac.Model.copa_fluid ());
          Fluid.Hybrid.flow ~packet_cca:copa_at (Ccac.Model.copa_fluid ());
        ]
    in
    { m; net = Some net; hook; fluid; hybrid }
  in
  let points = Array.map point multipliers in
  { smoke; duration; points; probe; cca }

let release _ = ()

let ratio_of x1 x2 = Float.max x1 x2 /. Float.max (Float.min x1 x2) 1.

(* The paper's boundary, on every backend: near-fair far below the
   threshold, starved (ratio > 4) somewhere past it.  Exp_threshold's
   own check reads the D = 8 delta_max point, but at this 30 s horizon
   that point is in the deep-queue regime on the packet backend and its
   second-half ratio falls to about 2.5 (README.md records this); the
   curves are printed with every run. *)
let shape_ok ratios =
  let low = List.assoc 0.25 ratios in
  let high = List.fold_left (fun acc (m, r) -> if m >= 2. then Float.max acc r else acc) 0. ratios in
  low < 2. && high > 4.

let curve ratios =
  String.concat " "
    (List.map (fun (m, r) -> Printf.sprintf "%g:%.2f" m r) (List.sort compare ratios))

(* The queue's own cost per event, replayed on a standalone queue from
   the event times the traced pass recorded: [k] handles (the mean
   occupancy the hook saw), each re-armed on firing at the recorded
   time [k] events ahead, so the replay pops the recorded times in
   their recorded order — one pop plus one re-arm per event, the pair
   every simulator event performs, with the simulator's own spacing of
   times.  The in-situ split is not observable from outside: the step
   hook runs before the pop, so entry-to-hook holds no queue work. *)
let replay_pop_ns ~pending times n =
  let k = max 1 (min (n - 1) (int_of_float (Float.round pending))) in
  let sample () =
    let eq = Sim.Event_queue.create () in
    let i = ref 0 in
    for j = 0 to k - 1 do
      let h = Sim.Event_queue.handle ignore in
      Sim.Event_queue.set_action h (fun () ->
          let next = !i + k in
          incr i;
          if next < n then Sim.Event_queue.schedule_handle eq h ~at:times.(next));
      Sim.Event_queue.schedule_handle eq h ~at:times.(j)
    done;
    let t0 = Trace.now_ns () in
    while Sim.Event_queue.step eq do () done;
    float_of_int (Trace.now_ns () - t0) /. float_of_int n
  in
  if n < 2 then 0.
  else begin
    ignore (sample ());
    Common.median (List.init 5 (fun _ -> sample ()))
  end

(* Per-call cost of the step hook, measured on the final state of the
   network it observed (its reads are the same); the probe's tallies
   are restored afterwards. *)
let hook_ns probe h =
  let events = probe.events and pending_sum = probe.pending_sum in
  let recorded = probe.recorded in
  let n = 200_000 in
  let t0 = Trace.now_ns () in
  for _ = 1 to n do
    h 0.
  done;
  let dt = float_of_int (Trace.now_ns () - t0) /. float_of_int n in
  probe.events <- events;
  probe.pending_sum <- pending_sum;
  probe.recorded <- recorded;
  dt

(* What the checks keep of a packet point once its network is gone. *)
type packet_result = { pm : float; ratio : float; hash : string; packets : int; fallbacks : int }

let check_packet checks ~duration m net =
  let scenario = Printf.sprintf "threshold/packet/m=%g" m in
  Common.check checks (scenario ^ " conservation")
    (Validate.Oracle.all_ok (Validate.Conservation.verdicts ~scenario net));
  let fallbacks = Sim.Network.delay_line_fallbacks net in
  Common.check checks (scenario ^ " delay-line fallbacks") (fallbacks = 0);
  let d = duration in
  {
    pm = m;
    ratio =
      ratio_of
        (Sim.Network.throughput net ~flow:0 ~t0:(d /. 2.) ~t1:d)
        (Sim.Network.throughput net ~flow:1 ~t0:(d /. 2.) ~t1:d);
    hash = Sim.Network.state_hash net;
    packets =
      Array.fold_left
        (fun acc f -> acc + (Sim.Flow.delivered_bytes f / mss))
        0 (Sim.Network.flows net);
    fallbacks;
  }

let pass ~cal checks ~tracer ~first:_ inp =
  let span name f = Trace.span tracer name f in
  let untimed f = span "bench.untimed" f in
  let smoke = inp.smoke in
  let pts = inp.points in
  let n = Array.length pts in
  let hook_cost = ref 0. in
  let minor_words = ref 0. and majors = ref 0 in
  (* Each packet point starts after a full collection and is checked and
     dropped right after it runs, all outside the timed part. *)
  let run_packet p =
    let net = Option.get p.net in
    untimed Gc.full_major;
    let g0 = Gc.quick_stat () in
    let (), dt, cpu = Common.timed (fun () -> span "Network.run" (fun () -> ignore (Sim.Network.run net))) in
    let g1 = Gc.quick_stat () in
    minor_words := !minor_words +. g1.Gc.minor_words -. g0.Gc.minor_words;
    majors := !majors + g1.Gc.major_collections - g0.Gc.major_collections;
    untimed (fun () ->
        (* The probe observes the run only, not the checks. *)
        Sim.Event_queue.set_step_hook (Sim.Network.event_queue net) None;
        (match p.hook with
        | Some h when !hook_cost = 0. -> hook_cost := hook_ns inp.probe h
        | _ -> ());
        let r = check_packet checks ~duration:inp.duration p.m net in
        p.net <- None;
        p.hook <- None;
        (r, dt, cpu))
  in
  (* [reps] sweeps over every point; results by repetition, then point. *)
  let timed_sweep name reps f =
    Array.init reps (fun _ ->
        Array.map (fun p -> Common.timed (fun () -> span name (fun () -> f p))) pts)
  in
  let total a = Array.fold_left (fun acc (_, dt, _) -> acc +. dt) 0. a in
  let total_cpu a = Array.fold_left (fun acc (_, _, c) -> acc +. c) 0. a in
  let sum f sweeps = Array.fold_left (fun acc a -> acc +. f a) 0. sweeps in
  let first (r, _, _) = r in
  let packet, fluid, hybrid =
    span "bench.pass" (fun () ->
        let packet = Array.map run_packet pts in
        let fluid =
          timed_sweep "Engine.run_config" (fluid_reps ~smoke) (fun p ->
              Fluid.Engine.run_config p.fluid)
        in
        let hybrid =
          timed_sweep "Hybrid.run" (hybrid_reps ~smoke) (fun p -> Fluid.Hybrid.run p.hybrid)
        in
        (packet, fluid, hybrid))
  in
  let wall_packet = total packet
  and wall_fluid = sum total fluid
  and wall_hybrid = sum total hybrid in
  let wall = wall_packet +. wall_fluid +. wall_hybrid in
  let cpu = total_cpu packet +. sum total_cpu fluid +. sum total_cpu hybrid in
  let fluid = Array.map (Array.map first) fluid
  and hybrid = Array.map (Array.map first) hybrid in
  let engines = fluid.(0) and hybrids = hybrid.(0) in
  let packet = Array.to_list (Array.map first packet) in
  (* ---- checks on the fluid and hybrid sweeps, outside the timed part ---- *)
  let packets = List.fold_left (fun acc r -> acc + r.packets) 0 packet in
  let fallbacks = List.fold_left (fun acc r -> acc + r.fallbacks) 0 packet in
  let packet_ratios = List.map (fun r -> (r.pm, r.ratio, r.hash)) packet in
  (* Conservation holds on every repetition, and every repetition
     counts the same bytes as the first. *)
  let fluid_counted e = (Fluid.Engine.counted_bytes e 0, Fluid.Engine.counted_bytes e 1) in
  let fluid_ratios =
    Array.to_list
      (Array.mapi
         (fun i e ->
           let p = pts.(i) in
           (* Float rounding only: the ledger sums ~10^4 steps of ~10^4
              bytes each, so an error above 1e-9 of the traffic is an
              accounting bug, not rounding. *)
           Common.check checks
             (Printf.sprintf "threshold/fluid/m=%g conservation" p.m)
             (Array.for_all
                (fun sweep ->
                  Fluid.Engine.conservation_error sweep.(i)
                  <= 1e-9 *. Fluid.Engine.accepted_total sweep.(i))
                fluid);
           Common.check checks
             (Printf.sprintf "threshold/fluid/m=%g repetitions agree" p.m)
             (Array.for_all (fun sweep -> fluid_counted sweep.(i) = fluid_counted e) fluid);
           let c0, c1 = fluid_counted e in
           (p.m, ratio_of c0 c1))
         engines)
  in
  let hybrid_ratios =
    Array.to_list
      (Array.mapi
         (fun i (r : Fluid.Hybrid.result) ->
           let m = pts.(i).m in
           Common.check checks
             (Printf.sprintf "threshold/hybrid/m=%g ledger" m)
             (Array.for_all
                (fun (sweep : Fluid.Hybrid.result array) ->
                  sweep.(i).conservation_error <= float_of_int sweep.(i).handoffs)
                hybrid);
           Common.check checks
             (Printf.sprintf "threshold/hybrid/m=%g repetitions agree" m)
             (Array.for_all
                (fun (sweep : Fluid.Hybrid.result array) -> sweep.(i).counted = r.counted)
                hybrid);
           (m, ratio_of r.counted.(0) r.counted.(1)))
         hybrids)
  in
  let packet_only = List.map (fun (m, r, _) -> (m, r)) packet_ratios in
  (* The shape needs the full horizon; a smoke pass is too short. *)
  if not smoke then begin
    Common.check checks "threshold/packet E14 boundary" (shape_ok packet_only);
    Common.check checks "threshold/fluid E14 boundary" (shape_ok fluid_ratios);
    Common.check checks "threshold/hybrid E14 boundary" (shape_ok hybrid_ratios)
  end;
  let notes =
    [
      "E14 ratio by D/delta_max, packet: " ^ curve packet_only;
      "E14 ratio by D/delta_max, fluid:  " ^ curve fluid_ratios;
      "E14 ratio by D/delta_max, hybrid: " ^ curve hybrid_ratios;
      Printf.sprintf
        "pass split: packet %.3f s, fluid %.3f s (%d sweeps), hybrid %.3f s (%d sweeps)"
        wall_packet wall_fluid (Array.length fluid) wall_hybrid (Array.length hybrid);
    ]
  in
  let digest = Common.digest_of (packet_ratios, fluid_ratios, hybrid_ratios) in
  let steps = Array.fold_left (fun acc e -> acc + Fluid.Engine.steps e) 0 engines in
  let packet_time, handoffs, hybrid_err =
    Array.fold_left
      (fun (pt, h, err) (r : Fluid.Hybrid.result) ->
        ( pt
          +. List.fold_left
               (fun acc (a, b, k) -> if k = `Packet then acc +. (b -. a) else acc)
               0. r.segments,
          h + r.handoffs,
          err +. r.conservation_error ))
      (0., 0, 0.) hybrids
  in
  let sim_s = float_of_int n *. inp.duration in
  let pkts = float_of_int (max 1 packets) in
  let counters =
    [
      ("packets_per_s", pkts /. wall_packet);
      ("fluid.sim_s_per_s", float_of_int (Array.length fluid) *. sim_s /. wall_fluid);
      ("hybrid.sim_s_per_s", float_of_int (Array.length hybrid) *. sim_s /. wall_hybrid);
      ("delay_line.fallbacks", float_of_int fallbacks);
      ("fluid_engine.steps", float_of_int steps);
      ("hybrid.packet_share", packet_time /. sim_s);
      ("hybrid.handoffs", float_of_int handoffs);
      ("hybrid.conservation_error_bytes", hybrid_err);
      ("gc.minor_words_per_packet", !minor_words /. pkts);
      ("gc.major_collections", float_of_int !majors);
    ]
  in
  match (tracer, inp.cca) with
  | None, _ | _, None ->
      { Common.wall; cpu; digest; notes; layers = counters; remainder = 0.; trace_json = None }
  | Some t, Some aggs ->
      let pr = inp.probe in
      if not smoke then
        Common.check checks
          "threshold reaches the deep-queue regime (> 10000 packets queued)"
          (pr.queue_peak / mss > 10_000);
      let selfs, clock = Trace.self_times cal t in
      (* The hook's own reads are tracing cost: move them out of
         Network.run's self time into the named remainder. *)
      let hook_total = float_of_int pr.events *. !hook_cost in
      let selfs = Trace.adjust selfs "Network.run" (-.hook_total) in
      let events = float_of_int (max 1 pr.events) in
      let pop_ns =
        replay_pop_ns ~pending:(float_of_int pr.pending_sum /. events) pr.times pr.recorded
      in
      let cca_total = Trace.prefix_ns selfs "cca." in
      let acks = float_of_int (max 1 aggs.on_ack.count) in
      let traced =
        [
          ("event_queue.pop_ns", pop_ns);
          ("event_queue.events_per_packet", events /. pkts);
          ("event_queue.peak_pending", float_of_int pr.pending_peak);
          ("cca.ns_per_packet", cca_total /. pkts);
          ("cca.on_ack_ns", Trace.self_ns selfs "cca.on_ack" /. acks);
          ("cca.ns_per_ack", cca_total /. acks);
          ("cca.calls_per_packet", float_of_int (Trace.cca_calls aggs) /. pkts);
          ( "network.other_ns_per_packet",
            (Trace.self_ns selfs "Network.run" -. (events *. pop_ns)) /. pkts );
          ("link.queue_peak_pkts", float_of_int (pr.queue_peak / mss));
          ("flow.inflight_peak_pkts", float_of_int (pr.inflight_peak / mss));
          ( "fluid_engine.ns_per_step",
            Trace.self_ns selfs "Engine.run_config"
            /. float_of_int (max 1 (steps * Array.length fluid)) );
        ]
      in
      Common.traced_pass ~wall ~cpu ~digest ~notes ~layers:(traced @ counters) checks cal t
        (selfs, clock +. hook_total)
