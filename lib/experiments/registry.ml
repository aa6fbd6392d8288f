type plan = {
  jobs : Runner.Job.t list;
  merge : bytes list -> Report.row list;
}

type experiment = {
  key : string;
  title : string;
  backends : Fluid.Backend.t list;
  plan : quick:bool -> backend:Fluid.Backend.t -> plan;
}

let merge_solo key = function
  | [ b ] -> (Runner.Job.decode b : Report.row list)
  | payloads ->
      invalid_arg
        (Printf.sprintf "Registry: experiment %s expected 1 payload, got %d" key
           (List.length payloads))

(* Experiments that have not been decomposed into per-simulation jobs run
   as one job each: the whole experiment executes inside the job (its
   prints are captured and replayed by the pool) and the rows come back
   as the payload.  A packet-only experiment ignores the simulation
   backend — it is the same computation under any [--backend], so it
   accepts every backend and its cache key stays backend-free, caching
   naturally across backend selections. *)
let solo key title (run : ?quick:bool -> unit -> Report.row list) =
  let plan ~quick ~backend:_ =
    let job =
      Runner.Job.create
        ~key:(Printf.sprintf "%s/quick=%b" key quick)
        (fun () -> run ~quick ())
    in
    { jobs = [ job ]; merge = merge_solo key }
  in
  { key; title; backends = Fluid.Backend.all; plan }

(* Backend-aware solo experiments: the backend changes the computation,
   so it must be part of the cache key — a cached packet run must never
   satisfy a [--backend fluid] request. *)
let solo_backend key title run =
  let plan ~quick ~backend =
    let job =
      Runner.Job.create
        ~key:
          (Printf.sprintf "%s/quick=%b/backend=%s" key quick
             (Fluid.Backend.to_string backend))
        (fun () -> run ~quick ~backend)
    in
    { jobs = [ job ]; merge = merge_solo key }
  in
  { key; title; backends = Fluid.Backend.all; plan }

(* Experiments whose jobs carry raw measurements: the merge rebuilds the
   rows (and prints any experiment-specific tables) in the parent. *)
let planned key title plan_fn =
  let plan ~quick ~backend:_ =
    let jobs, merge = plan_fn ~quick in
    { jobs; merge }
  in
  { key; title; backends = Fluid.Backend.all; plan }

(* As [planned], for experiments ported to other backends: the planner
   receives the backend and embeds it in every job key. *)
let planned_backend key title plan_fn =
  let plan ~quick ~backend =
    let jobs, merge = plan_fn ~quick ~backend in
    { jobs; merge }
  in
  { key; title; backends = Fluid.Backend.all; plan }

let all =
  [
    solo "fig1" "Figure 1: ideal-path delay convergence" Exp_fig1.run;
    solo "fig3" "Figures 2-3: rate-delay maps" Exp_fig3.run;
    solo "copa" "E1-E2: Copa min-RTT poisoning (sec. 5.1)" Exp_copa.run;
    solo "bbr" "E3-E4: BBR starvation and +alpha ablation (sec. 5.2)" Exp_bbr.run;
    solo "vivace" "E5: PCC Vivace ACK aggregation (sec. 5.3)" Exp_vivace.run;
    solo "fig7" "Figure 7: Reno/Cubic delayed-ACK unfairness" Exp_fig7.run;
    solo "allegro" "E6: PCC Allegro random loss (sec. 5.4)" Exp_allegro.run;
    solo "theorem1" "E7 + Figures 4-6: Theorem 1 construction" Exp_theorem1.run;
    solo "theorem2" "E8-E9: Theorems 2-3 constructions" Exp_theorem2.run;
    solo "alg1" "E10-E11: Algorithm 1 and the figure of merit (sec. 6.3)"
      Exp_alg1.run;
    solo "ccac" "E12: bounded model checking (appendix C)" Exp_ccac.run;
    solo "ecn" "E13: explicit signaling avoids starvation (sec. 6.4)" Exp_ecn.run;
    planned_backend "threshold"
      "E14: starvation ratio vs jitter (the Theorem 1 boundary)"
      Exp_threshold.plan;
    solo "isolation" "E15: DRR isolation vs the shared FIFO (conclusion)"
      Exp_isolation.run;
    planned "robustness" "E16: seed robustness of the headline ratios"
      Exp_robustness.plan;
    planned "matrix" "E17: cross-CCA summary matrix" Exp_matrix.plan;
    planned "faults" "E18: fault-scenario matrix (recovery + invariants)"
      Exp_faults.plan;
    {
      (planned_backend "census"
         "E19: starvation census over a churning flow population"
         Exp_census.plan)
      with
      backends = [ Fluid.Backend.Packet; Fluid.Backend.Fluid ];
    };
    solo_backend "validate"
      "V1-V6: validation oracles (queueing, conservation, equilibria, metamorphic, fuzz, fluid backend)"
      (fun ~quick ~backend -> Exp_validate.run ~quick ~backend ());
  ]

(* Experiments reachable by key but kept out of [all]: [selftest-fail]
   exists so the exit-code contract (quarantine => non-zero exit) can be
   asserted end to end against the real binary. *)
let hidden =
  [
    solo "selftest-fail" "hidden: deliberately failing job"
      (fun ?quick:_ () -> failwith "selftest-fail: deliberate failure");
  ]

let find key = List.find_opt (fun e -> e.key = key) (all @ hidden)
let keys () = List.map (fun e -> e.key) all

(* One place owns the "unknown key" contract: every CLI front end that
   takes experiment names reports the same error, and the error names
   what would have worked — a typo should cost one read, not a trip to
   `list`. *)
let select = function
  | [] -> Ok all
  | wanted ->
      let missing = List.filter (fun k -> find k = None) wanted in
      if missing <> [] then
        Error
          (Printf.sprintf "unknown experiment(s): %s\navailable: %s"
             (String.concat ", " missing)
             (String.concat ", " (keys ())))
      else Ok (List.filter_map find wanted)

(* One place owns the backend contract too: an experiment runs only on
   the substrates it declares, never on a silent stand-in. *)
let supported backend experiments =
  let name = Fluid.Backend.to_string in
  match List.filter (fun e -> not (List.mem backend e.backends)) experiments with
  | [] -> Ok experiments
  | bad ->
      Error
        (String.concat "\n"
           (List.map
              (fun e ->
                Printf.sprintf
                  "experiment %s does not support backend %s (supported: %s)"
                  e.key (name backend)
                  (String.concat ", " (List.map name e.backends)))
              bad))

let rec take_drop n = function
  | rest when n = 0 -> ([], rest)
  | [] -> invalid_arg "Registry: fewer results than jobs"
  | x :: rest ->
      let taken, left = take_drop (n - 1) rest in
      (x :: taken, left)

let run_selection ?(quick = false) ?(sim_backend = Fluid.Backend.Packet)
    ?(workers = 1) ?cache ?(policy = Runner.Supervise.default_policy) ?journal
    ?(allow_failures = false) experiments =
  let experiments =
    match supported sim_backend experiments with
    | Ok es -> es
    | Error msg -> invalid_arg msg
  in
  let plans =
    List.map (fun e -> (e, e.plan ~quick ~backend:sim_backend)) experiments
  in
  let jobs = List.concat_map (fun (_, p) -> p.jobs) plans in
  (* The merge layer needs every payload, so a quarantined job is a hard
     failure unless [allow_failures] — but only after the rest of the
     matrix completed (and cached), so a re-run only re-executes the
     stragglers. *)
  let outcomes, stats =
    Runner.Supervise.run ~workers ~policy ?cache ?journal jobs
  in
  let results =
    List.map2
      (fun j outcome ->
        match outcome with
        | Runner.Supervise.Done { out; payload } -> (out, Some payload)
        | Runner.Supervise.Quarantined { reason; _ } ->
            if allow_failures then begin
              Printf.eprintf "runner: job %s quarantined: %s\n"
                (Runner.Job.key j) reason;
              ("", None)
            end
            else
              raise (Runner.Pool.Job_failed { key = Runner.Job.key j; reason }))
      jobs outcomes
  in
  (* Replay each experiment's captured stdout in job order, then merge and
     print its table: the byte stream is the same whether the jobs ran
     serially, in parallel, or straight out of the cache.  An experiment
     with a quarantined job (allow_failures only) is skipped whole: its
     merge never sees a partial payload list. *)
  let rows, _ =
    List.fold_left
      (fun (acc, remaining) (e, p) ->
        let mine, rest = take_drop (List.length p.jobs) remaining in
        if List.exists (fun (_, payload) -> payload = None) mine then begin
          Printf.eprintf
            "runner: experiment %s skipped (quarantined job)\n" e.key;
          (acc, rest)
        end
        else begin
          List.iter (fun (out, _) -> print_string out) mine;
          let rows =
            p.merge (List.filter_map snd mine)
          in
          Report.print_rows ~title:e.title rows;
          (acc @ rows, rest)
        end)
      ([], results) plans
  in
  (rows, stats)
