open Sim

(* Cross-validation of the fluid backend against the packet simulator,
   plus the fluid/hybrid byte-conservation oracles.

   Tolerance discipline follows queueing.ml: the acceptance band is
   z=5 times the empirical standard error of the packet-side
   measurement (estimated from disjoint subintervals of the
   measurement window), floored by a model-granularity term — the
   CCA's own oscillation band (the same alpha..beta / sawtooth slack
   the equilibrium oracles use) plus the fluid model's discretisation
   bias.  A fluid backend that drifts outside that band disagrees with
   packet reality by more than packet reality disagrees with itself. *)

type cca_kind = Reno | Copa | Vegas

let kind_name = function Reno -> "reno" | Copa -> "copa" | Vegas -> "vegas"

let kind_law = function
  | Reno -> Ccac.Model.reno_fluid
  | Copa -> Ccac.Model.copa_fluid ()
  | Vegas -> Ccac.Model.vegas_fluid ()

let kind_cca = function
  | Reno -> Reno.make ()
  | Copa -> Copa.make ()
  | Vegas -> Vegas.make ()

let z = 5.

(* Standard error of a windowed packet measurement, from [k] disjoint
   subintervals — the statistical half of the z=5 band. *)
let stderr_of ~t0 ~t1 ~k f =
  let stats = Stats.Online.create () in
  let dt = (t1 -. t0) /. float_of_int k in
  for i = 0 to k - 1 do
    let a = t0 +. (float_of_int i *. dt) in
    Stats.Online.add stats (f ~t0:a ~t1:(a +. dt))
  done;
  let sd = Stats.Online.stddev stats in
  if Float.is_nan sd then 0. else sd /. sqrt (float_of_int k)

let ratio_of x0 x1 = Float.max x0 x1 /. Float.max (Float.min x0 x1) 1.

(* The per-link fluid byte-conservation oracle: every accepted byte is
   either still queued or was served, exactly, up to float rounding
   across the step accumulations. *)
let conservation ~scenario eng =
  Oracle.check ~oracle:"fluid-conservation" ~scenario ~expected:0.
    ~observed:(Fluid.Engine.conservation_error eng)
    ~tolerance:(1. +. (1e-6 *. Fluid.Engine.accepted_total eng))
    ~detail:
      (Printf.sprintf "accepted=%.0fB served=%.0fB q=%.0fB steps=%d"
         (Fluid.Engine.accepted_total eng)
         (Fluid.Engine.served_total eng)
         (Fluid.Engine.queue_bytes eng) (Fluid.Engine.steps eng))
    ()

(* Fluid vs packet on a symmetric 2-flow scenario: equilibrium
   throughput ratio and standing queue must agree.  Reno runs against
   a 1-BDP drop-tail buffer (it needs loss to regulate); the
   delay-based CCAs run with the unbounded queue their standing-queue
   laws assume. *)
let agreement_kind ?(seed = 7) ?(rate = Units.mbps 20.) ?(rm = Units.ms 40.)
    ?(duration = 30.) kind =
  let buffer_bytes =
    match kind with Reno -> Some (rate *. rm) | Copa | Vegas -> None
  in
  let t0 = duration /. 2. and t1 = duration in
  let net =
    Network.run_config
      (Network.config ~rate:(Link.Constant rate)
         ?buffer:(Option.map int_of_float buffer_bytes)
         ~rm ~seed ~record_queue:true ~duration
         [ Network.flow (kind_cca kind); Network.flow (kind_cca kind) ])
  in
  let ratio_p =
    ratio_of
      (Network.throughput net ~flow:0 ~t0 ~t1)
      (Network.throughput net ~flow:1 ~t0 ~t1)
  in
  let queue_p = Equilibrium.mean_queue_bytes net ~t0 ~t1 in
  let law = kind_law kind in
  let eng =
    Fluid.Engine.run_config
      (Fluid.Engine.config ~rate ?buffer:buffer_bytes ~rm ~duration
         ~measure_from:t0
         [ Fluid.Engine.flow law; Fluid.Engine.flow law ])
  in
  let ratio_f =
    ratio_of (Fluid.Engine.counted_bytes eng 0) (Fluid.Engine.counted_bytes eng 1)
  in
  let queue_f = Fluid.Engine.mean_queue_bytes eng in
  let scenario = Printf.sprintf "%s-2flow" (kind_name kind) in
  let detail =
    Printf.sprintf "C=%.0fB/s rm=%gs dur=%gs seed=%d" rate rm duration seed
  in
  let ratio_se =
    stderr_of ~t0 ~t1 ~k:8 (fun ~t0 ~t1 ->
        ratio_of
          (Network.throughput net ~flow:0 ~t0 ~t1)
          (Network.throughput net ~flow:1 ~t0 ~t1))
  in
  let queue_se = stderr_of ~t0 ~t1 ~k:8 (Equilibrium.mean_queue_bytes net) in
  let mss = 1500. in
  (* Model-granularity floors, per CCA (two flows share the queue). *)
  let queue_floor =
    match kind with
    | Reno -> 0.25 *. Option.get buffer_bytes
    | Copa -> (4. *. mss) +. (0.5 *. queue_p)
    | Vegas -> 2. *. 3. *. mss  (* n * ((beta-alpha)/2 + 1) packets *)
  in
  let ratio_floor = (0.35 *. ratio_p) +. 0.25 in
  [
    Oracle.check ~oracle:"fluid-packet-ratio" ~scenario ~expected:ratio_p
      ~observed:ratio_f
      ~tolerance:(Float.max (z *. ratio_se) ratio_floor)
      ~detail ();
    Oracle.check ~oracle:"fluid-packet-queue" ~scenario ~expected:queue_p
      ~observed:queue_f
      ~tolerance:(Float.max (z *. queue_se) queue_floor)
      ~detail ();
    conservation ~scenario eng;
  ]

let agreement ?seed ?rate ?rm ?duration () =
  List.concat_map
    (fun k -> agreement_kind ?seed ?rate ?rm ?duration k)
    [ Reno; Copa; Vegas ]

(* The hybrid ledger chains fluid and packet segments; the only slack
   is the queue rounded to whole bytes at each fluid->packet seam. *)
let hybrid_conservation ~scenario (r : Fluid.Hybrid.result) =
  Oracle.check ~oracle:"hybrid-conservation" ~scenario ~expected:0.
    ~observed:r.Fluid.Hybrid.conservation_error
    ~tolerance:
      (1. +. float_of_int r.Fluid.Hybrid.handoffs
       +. (1e-6 *. r.Fluid.Hybrid.inflow))
    ~detail:
      (Printf.sprintf "inflow=%.0fB outflow=%.0fB q=%.0fB segments=%d"
         r.Fluid.Hybrid.inflow r.Fluid.Hybrid.outflow r.Fluid.Hybrid.q_final
         (List.length r.Fluid.Hybrid.segments))
    ()

(* The E14 threshold scenario: two Copa flows on 24 Mbit/s with a
   40 ms base RTT; flow 0's ACK-path jitter steps from 0 to D at t = 1 s.
   D is counted in Copa's equilibrium oscillation at the fair share
   (paper sec. 2.2: 4 alpha / C), the natural unit of Theorem 1. *)
let threshold_rate = Units.mbps 24.
let threshold_rm = 0.04
let threshold_delta_max = 4. *. 1500. /. (threshold_rate /. 2.)
let late_jitter jitter_d t = if t < 1. then 0. else jitter_d

(* The scenario on the hybrid backend: packet-level inside a window
   after t = 0 (flow start) and t = 1 (jitter activation — its only
   discontinuities), fluid in between and after. *)
let hybrid_threshold_run ~jitter_d ~duration =
  let copa_at ~cwnd =
    Copa.make
      ~params:{ Copa.default_params with init_cwnd_packets = cwnd /. 1500. }
      ()
  in
  Fluid.Hybrid.run
    (Fluid.Hybrid.config ~rate:threshold_rate ~rm:threshold_rm ~duration
       ~measure_from:(duration /. 2.) ~events:[ 1.0 ]
       [
         Fluid.Hybrid.flow ~jitter:(late_jitter jitter_d) ~jitter_bound:jitter_d
           ~packet_cca:copa_at (Ccac.Model.copa_fluid ());
         Fluid.Hybrid.flow ~packet_cca:copa_at (Ccac.Model.copa_fluid ());
       ])

(* End-to-end hybrid check on the threshold scenario: conservation
   holds across the seams, and a jitter bound far above the Copa
   threshold still starves one flow (ratio > 4) while a bound far
   below it does not (ratio < 2) — the hybrid must preserve the
   poisoned min-RTT across the fluid->packet handoff for this. *)
let hybrid_threshold ?(duration = 30.) () =
  let run m =
    hybrid_threshold_run ~jitter_d:(m *. threshold_delta_max) ~duration
  in
  let ratio (r : Fluid.Hybrid.result) =
    ratio_of r.Fluid.Hybrid.counted.(0) r.Fluid.Hybrid.counted.(1)
  in
  let low = run 0.25 and high = run 8. in
  [
    hybrid_conservation ~scenario:"hybrid-threshold-low" low;
    hybrid_conservation ~scenario:"hybrid-threshold-high" high;
    Oracle.check ~oracle:"hybrid-threshold-ratio" ~scenario:"below-threshold"
      ~expected:1. ~observed:(ratio low) ~tolerance:1.
      ~detail:"D = delta_max/4: no starvation expected" ();
    (if ratio high > 4. then
       Oracle.pass ~oracle:"hybrid-threshold-ratio" ~scenario:"above-threshold"
         ~detail:(Printf.sprintf "D = 8*delta_max: ratio=%.1f > 4" (ratio high))
         ()
     else
       Oracle.fail ~oracle:"hybrid-threshold-ratio" ~scenario:"above-threshold"
         ~detail:
           (Printf.sprintf "D = 8*delta_max: ratio=%.1f <= 4 (min-RTT handoff lost?)"
              (ratio high))
         ());
  ]

let all ?seed ?(quick = false) () =
  let duration = if quick then 20. else 30. in
  agreement ?seed ~duration ()
  @ hybrid_threshold ~duration:(if quick then 20. else 30.) ()
