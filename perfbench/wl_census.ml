(* Workload [census]: E19 cells through Sim.Population.run with columnar
   CCA factories — a standard Copa cell (70% load, unbounded buffer,
   20 ms ACK jitter) and a heavy Reno cell (140% load, 20-packet
   buffer) — then the same standard cell through Fluid.Census.run.  The
   cell constants are E19's; the populations are smaller so one pass
   takes seconds, and the seed draws them. *)

let mss = Cca.default_mss
let rate = Sim.Units.mbps 480.
let rm = 0.02
let arrival_frac = 0.6
let alpha = 1.5
let xm = float_of_int (10 * mss)
let size_cap = 10_000_000
let jitter_d = 0.02

(* Pareto(1.5) mean is 3 xm (Exp_census sizes its horizon the same way). *)
let duration_for ~load n =
  Float.max 5. (float_of_int n *. 3. *. xm /. (load *. rate *. arrival_frac))

type cell = {
  name : string;
  heavy : bool;
  cfg : Sim.Population.config;
  factory : slot:int -> prev:Cca.instance option -> Cca.instance;
}

type inputs = {
  cells : cell list;
  fluid : Fluid.Census.config;
  cca : Trace.cca_aggs option;
}

let population ~smoke ~heavy =
  if smoke then 300 else if heavy then 20_000 else 40_000

(* A run cycles through [populations] draws from its seed: one
   population's total work swings with its few Pareto elephants, and an
   average over several populations is what settles.  The set is fixed
   by the seed alone, so a faster program is measured on the same
   populations as a slower one. *)
let populations = 8
let pass_seed ~seed ~population = (seed * 1009) + population

let setup ~seed ~smoke ~work:_ ~tracer =
  let cca = Option.map Trace.cca_aggs tracer in
  let factory ~nfields make_in =
    let cols = Columns.create ~nfields () in
    fun ~slot:_ ~prev ->
      match prev with
      | Some i -> (
          match i.Cca.reset with
          | Some r ->
              r ();
              i
          | None -> invalid_arg "census: columnar instance without reset")
      | None -> (
          let i = make_in cols in
          match (tracer, cca) with
          | Some t, Some aggs -> { i with Cca.cca = Trace.wrap_cca t aggs i.Cca.cca }
          | _ -> i)
  in
  let cell name ~heavy ~load ~buffer ~jitter_d factory =
    let n = population ~smoke ~heavy in
    let key = Printf.sprintf "perfbench/census/%s/n=%d" name n in
    {
      name;
      heavy;
      factory;
      cfg =
        {
          Sim.Population.n;
          duration = duration_for ~load n;
          arrival_frac;
          rate;
          buffer;
          rm;
          mss;
          jitter_d;
          seed;
          key;
          alpha;
          xm;
          size_cap;
        };
    }
  in
  let n_std = population ~smoke ~heavy:false in
  {
    cells =
      [
        cell "std/copa/jit=20ms" ~heavy:false ~load:0.7 ~buffer:None ~jitter_d
          (factory ~nfields:Copa.nfields (fun c -> Copa.make_in c));
        cell "heavy/reno" ~heavy:true ~load:1.4 ~buffer:(Some (20 * mss))
          ~jitter_d:0. (factory ~nfields:Reno.nfields (fun c -> Reno.make_in c));
      ];
    fluid =
      Fluid.Census.config ~key:"perfbench/census/fluid/std/copa/jit=20ms" ~seed
        ~n:n_std ~duration:(duration_for ~load:0.7 n_std) ~arrival_frac ~rate ~rm
        ~mss:(float_of_int mss) ~jitter_d ~alpha ~xm
        ~size_cap:(float_of_int size_cap) (Ccac.Model.copa_fluid ());
    cca;
  }

let release _ = ()

(* E19's well-formedness predicate (Exp_census.rows_of_cells): a finite
   distribution over the whole population, no delay-line escapes, slots
   bounded by the population, and the standard cell drains. *)
let well_formed ~heavy ~flows ~completed ~fallbacks ~slots goodputs =
  let s = Sim.Stats.ratio_summary goodputs in
  s.Sim.Stats.total = flows
  && Float.is_finite s.Sim.Stats.p99
  && Float.is_finite s.Sim.Stats.max_ratio
  && fallbacks = 0 && slots <= flows
  && (heavy || completed > flows / 2)

let pass ~cal checks ~tracer ~first:_ inp =
  let span name f = Trace.span tracer name f in
  (* Collect first so the live-words delta after the pass is what its
     results hold; untimed, and done in every pass alike. *)
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let g0 = ref (Gc.quick_stat ()) and g1 = ref (Gc.quick_stat ()) in
  let t_packet = ref 0. in
  let (results, fluid), wall, cpu =
    Common.timed (fun () ->
        span "bench.pass" (fun () ->
            let t0 = Common.now () in
            g0 := Gc.quick_stat ();
            let results =
              List.map
                (fun c ->
                  span "Population.run" (fun () ->
                      Sim.Population.run ~cca:c.factory c.cfg))
                inp.cells
            in
            g1 := Gc.quick_stat ();
            t_packet := Common.now () -. t0;
            let fluid = span "Census.run" (fun () -> Fluid.Census.run inp.fluid) in
            (results, fluid)))
  in
  let t_fluid = wall -. !t_packet in
  Gc.full_major ();
  let live1 = (Gc.stat ()).Gc.live_words in
  let g0 = !g0 and g1 = !g1 in
  (* ---- checks ---- *)
  let flows = List.fold_left (fun acc c -> acc + c.cfg.Sim.Population.n) 0 inp.cells in
  List.iter2
    (fun c (r : Sim.Population.result) ->
      Common.check checks
        (Printf.sprintf "census/%s well-formed" c.name)
        (well_formed ~heavy:c.heavy ~flows:c.cfg.Sim.Population.n
           ~completed:r.completed ~fallbacks:r.fallbacks ~slots:r.slots r.goodputs))
    inp.cells results;
  let fn = inp.fluid.Fluid.Census.n in
  Common.check checks "census/fluid/std/copa well-formed"
    (well_formed ~heavy:false ~flows:fn ~completed:fluid.Fluid.Census.completed
       ~fallbacks:0 ~slots:fluid.Fluid.Census.peak_active fluid.Fluid.Census.goodputs);
  let digest =
    Common.digest_of
      ( List.map
          (fun (r : Sim.Population.result) ->
            (r.goodputs, r.completed, r.slots, r.peak_active, r.table_capacity))
          results,
        fluid.Fluid.Census.goodputs,
        fluid.Fluid.Census.completed )
  in
  let completed =
    List.fold_left (fun acc (r : Sim.Population.result) -> acc + r.completed) 0 results
  in
  let sum f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 results) in
  let peak f = float_of_int (List.fold_left (fun acc r -> max acc (f r)) 0 results) in
  let population = float_of_int (flows + fn) in
  let counters =
    [
      ("flows_per_s", float_of_int completed /. !t_packet);
      ("fluid.flows_per_s", float_of_int fluid.Fluid.Census.completed /. t_fluid);
      ("bytes_per_flow", float_of_int ((live1 - live0) * 8) /. population);
      ("population.slots", sum (fun r -> r.Sim.Population.slots));
      ("population.table_capacity", sum (fun r -> r.Sim.Population.table_capacity));
      ("population.peak_active", peak (fun r -> r.Sim.Population.peak_active));
      ("population.peak_pending", peak (fun r -> r.Sim.Population.peak_pending));
      ("delay_line.fallbacks", sum (fun r -> r.Sim.Population.fallbacks));
      ("fluid_census.steps", float_of_int fluid.Fluid.Census.steps);
      ( "gc.minor_words_per_flow",
        (g1.Gc.minor_words -. g0.Gc.minor_words) /. float_of_int flows );
      ( "gc.major_collections",
        float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
    ]
  in
  match (tracer, inp.cca) with
  | None, _ | _, None ->
      { Common.wall; cpu; digest; notes = []; layers = counters; remainder = 0.; trace_json = None }
  | Some t, Some aggs ->
      let selfs, clock = Trace.self_times cal t in
      let cca_total = Trace.prefix_ns selfs "cca." in
      let acks = float_of_int (max 1 aggs.on_ack.count) in
      let traced =
        [
          ("cca.ns_per_ack", cca_total /. acks);
          ("cca.on_ack_ns", Trace.self_ns selfs "cca.on_ack" /. acks);
          ( "population.other_ns_per_flow",
            Trace.self_ns selfs "Population.run" /. float_of_int flows );
          ( "fluid_census.ns_per_step",
            Trace.self_ns selfs "Census.run"
            /. float_of_int (max 1 fluid.Fluid.Census.steps) );
        ]
      in
      Common.traced_pass ~wall ~cpu ~digest ~layers:(traced @ counters) checks cal t
        (selfs, clock)
