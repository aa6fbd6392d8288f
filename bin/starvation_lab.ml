(* starvation_lab: the reproduction's interactive tools.

   The experiments themselves run through `repro` (one key, several, or
   --all).  This front end holds what `repro` does not:

     report [--quick]          run every experiment and write a markdown report
     figures [--quick]         chart and print the figure tables
     export [--quick]          write the figure tables as CSV files
     convergence --cca <name>  measure delay-convergence over a rate sweep
     theorem1 --cca <name>     run the Theorem 1 construction end to end
     model --model vegas|aimd  adversarial search in the Appendix C model
     trace --cca <name>        chart one flow's RTT, cwnd, rate and internals
     duel --cca <name> ...     ad-hoc two-flow duel on a configurable link *)

open Cmdliner

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Use shortened runs (coarser numbers).")

(* ---------------- report ---------------- *)

let report_cmd =
  let out =
    Arg.(value & opt string "EXPERIMENTS.generated.md"
         & info [ "out" ] ~docv:"FILE" ~doc:"Output markdown file.")
  in
  let run out quick =
    let oc = open_out out in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc
          "# Generated experiment report\n\n\
           Produced by `starvation_lab report`; every row is \
           paper-vs-measured.\n\n";
        List.iter
          (fun e ->
            let rows, _ = Experiments.Registry.run_selection ~quick [ e ] in
            output_string oc
              (Experiments.Report.to_markdown ~title:e.Experiments.Registry.title
                 rows);
            output_string oc "\n")
          Experiments.Registry.all);
    Printf.printf "wrote %s\n" out
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Run every experiment and write a markdown report")
    Term.(const run $ out $ quick_arg)

(* ---------------- figures and export ---------------- *)

(* A figure that could not be built is an error, not a missing file. *)
let exit_on_failures cmd = function
  | [] -> ()
  | failures ->
      List.iter (Printf.eprintf "%s: %s\n" cmd) failures;
      exit 2

let figures_cmd =
  let run quick =
    let tables, failures = Experiments.Export.tables ~quick in
    (* (series name, rows) of every table whose name has [prefix]. *)
    let group prefix =
      List.filter_map
        (fun (t : Experiments.Export.table) ->
          if String.starts_with ~prefix t.name then
            let n = String.length prefix in
            Some (String.sub t.name n (String.length t.name - n), t.rows)
          else None)
        tables
    in
    let chart title ~x ~y series =
      print_string
        (Experiments.Ascii_plot.render ~title
           (List.map
              (fun (name, rows) -> (name, List.map (fun r -> (x r, y r)) rows))
              series))
    in
    let col i r = List.nth r i in
    let ms i r = Sim.Units.to_ms (col i r) in
    List.iter
      (fun (name, rows) ->
        chart
          (Printf.sprintf "Figure 1 (%s): RTT (ms) vs time (s)" name)
          ~x:(col 0) ~y:(ms 1) [ (name, rows) ])
      (group "fig1_");
    chart "Figure 3: d_max (ms) vs log10 rate (Mbit/s), Rm = 100 ms"
      ~x:(fun r -> Float.log10 (col 0 r))
      ~y:(ms 2) (group "fig3_");
    chart
      "E14: throughput ratio (capped at 50) vs D / delta_max (copa, Theorem 1 \
       boundary at 2)"
      ~x:(col 1)
      ~y:(fun r -> Float.min (col 2 r) 50.)
      (List.map (fun (_, rows) -> ("copa", rows)) (group "e14_phase"));
    (* The tables themselves, thinned to at most ~200 rows for the
       terminal; `export` writes them in full. *)
    List.iter
      (fun (t : Experiments.Export.table) ->
        let every = max 1 (List.length t.rows / 200) in
        Experiments.Report.print_series ~title:t.name ~cols:t.cols
          (List.filteri (fun i _ -> i mod every = 0) t.rows))
      tables;
    exit_on_failures "figures" failures
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Chart and print the numeric series behind the paper's figures")
    Term.(const run $ quick_arg)

let export_cmd =
  let dir =
    Arg.(value & opt string "figures" & info [ "dir" ] ~docv:"DIR"
           ~doc:"Directory for the CSV files.")
  in
  let run dir quick =
    let tables, failures = Experiments.Export.tables ~quick in
    List.iter (Printf.printf "wrote %s\n") (Experiments.Export.write ~dir tables);
    exit_on_failures "export" failures
  in
  Cmd.v (Cmd.info "export" ~doc:"Write the figure tables as CSV files")
    Term.(const run $ dir $ quick_arg)

(* ---------------- convergence ---------------- *)

let cca_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "vegas" -> Ok ("vegas", fun () -> Vegas.make ())
    | "fast" -> Ok ("fast", fun () -> Fast_tcp.make ())
    | "copa" -> Ok ("copa", fun () -> Copa.make ())
    | "bbr" -> Ok ("bbr", fun () -> Bbr.make ())
    | "vivace" -> Ok ("vivace", fun () -> Pcc_vivace.make ())
    | "allegro" -> Ok ("allegro", fun () -> Pcc_allegro.make ())
    | "reno" -> Ok ("reno", fun () -> Reno.make ())
    | "cubic" -> Ok ("cubic", fun () -> Cubic.make ())
    | "alg1" -> Ok ("alg1", fun () -> Alg1.make ())
    | "ledbat" -> Ok ("ledbat", fun () -> Ledbat.make ())
    | "ecn-reno" -> Ok ("ecn-reno", fun () -> Ecn_reno.make ())
    | other -> Error (`Msg (Printf.sprintf "unknown CCA %S" other))
  in
  Arg.conv (parse, fun ppf (name, _) -> Format.pp_print_string ppf name)

let convergence_cmd =
  let cca =
    Arg.(
      value
      & opt cca_conv ("copa", fun () -> Copa.make ())
      & info [ "cca" ] ~docv:"CCA"
          ~doc:"vegas|fast|copa|bbr|vivace|allegro|reno|cubic|alg1|ledbat|ecn-reno")
  in
  let rates =
    Arg.(
      value
      & opt (list float) [ 1.; 4.; 16.; 64. ]
      & info [ "rates" ] ~docv:"MBPS,..." ~doc:"Link rates to probe, Mbit/s.")
  in
  let rm_ms =
    Arg.(value & opt float 40. & info [ "rtt" ] ~docv:"MS" ~doc:"Propagation RTT, ms.")
  in
  let duration =
    Arg.(value & opt float 30. & info [ "duration" ] ~docv:"SECONDS" ~doc:"Per-rate run.")
  in
  let run (name, make_cca) rates rm_ms duration =
    let rm = Sim.Units.ms rm_ms in
    Printf.printf
      "Delay-convergence of %s (Definition 1), Rm = %.0f ms:\n\
       %-12s %-10s %-8s %-22s %-10s %s\n"
      name rm_ms "rate" "converged" "T (s)" "band (ms)" "delta(ms)" "efficiency";
    List.iter
      (fun mbps ->
        let m =
          Core.Convergence.measure ~make_cca ~rate:(Sim.Units.mbps mbps) ~rm
            ~duration ()
        in
        Printf.printf "%-12s %-10b %-8.1f [%8.3f, %8.3f]  %-10.3f %.3f\n"
          (Printf.sprintf "%g Mbit/s" mbps)
          m.Core.Convergence.converged m.Core.Convergence.t_converge
          (Sim.Units.to_ms m.Core.Convergence.d_min)
          (Sim.Units.to_ms m.Core.Convergence.d_max)
          (Sim.Units.to_ms m.Core.Convergence.delta)
          m.Core.Convergence.efficiency)
      rates
  in
  Cmd.v
    (Cmd.info "convergence"
       ~doc:"Measure a CCA's delay-convergence (Definition 1) over a rate sweep")
    Term.(const run $ cca $ rates $ rm_ms $ duration)

(* ---------------- theorem1 ---------------- *)

let theorem1_cmd =
  let cca =
    Arg.(
      value
      & opt cca_conv ("fast", fun () -> Fast_tcp.make ())
      & info [ "cca" ] ~docv:"CCA" ~doc:"CCA to starve (fast and ledbat are tuned).")
  in
  let s_arg =
    Arg.(value & opt float 4. & info [ "s" ] ~docv:"S" ~doc:"Target throughput ratio.")
  in
  let f_arg =
    Arg.(value & opt float 0.8 & info [ "f" ] ~docv:"F" ~doc:"Assumed efficiency.")
  in
  let rtt_ms =
    Arg.(value & opt float 20. & info [ "rtt" ] ~docv:"MS" ~doc:"Propagation RTT, ms.")
  in
  let lambda0 =
    Arg.(value & opt float 2. & info [ "lambda0" ] ~docv:"MBPS"
           ~doc:"First pigeonhole probe rate, Mbit/s.")
  in
  let eps_ms =
    Arg.(value & opt float 2. & info [ "epsilon" ] ~docv:"MS"
           ~doc:"Pigeonhole bucket size, ms.")
  in
  let run (name, make_cca) s f rtt_ms lambda0 eps_ms =
    Printf.printf "Running the Theorem 1 construction on %s (s=%.1f, f=%.1f)...\n%!"
      name s f;
    match
      Core.Theorem1.run ~make_cca ~rm:(Sim.Units.ms rtt_ms) ~s ~f
        ~lambda0:(Sim.Units.mbps lambda0)
        ~epsilon:(Sim.Units.ms eps_ms) ()
    with
    | Error e ->
        Printf.eprintf "construction failed: %s\n" e;
        exit 2
    | Ok o ->
        Format.printf "%a@." Core.Theorem1.pp_outcome o;
        if not o.Core.Theorem1.starved then exit 2
  in
  Cmd.v
    (Cmd.info "theorem1" ~doc:"Run the Theorem 1 starvation construction end to end")
    Term.(const run $ cca $ s_arg $ f_arg $ rtt_ms $ lambda0 $ eps_ms)

(* ---------------- model ---------------- *)

let model_cmd =
  let model_conv =
    let parse s =
      match String.lowercase_ascii s with
      | "vegas" -> Ok `Vegas
      | "aimd" -> Ok `Aimd
      | other -> Error (`Msg (Printf.sprintf "unknown model %S (vegas|aimd)" other))
    in
    Arg.conv
      (parse, fun ppf m -> Format.pp_print_string ppf (match m with `Vegas -> "vegas" | `Aimd -> "aimd"))
  in
  let which =
    Arg.(value & opt model_conv `Vegas
         & info [ "model" ] ~docv:"MODEL" ~doc:"vegas|aimd")
  in
  let jitter_ms =
    Arg.(value & opt float 50. & info [ "jitter" ] ~docv:"MS" ~doc:"The model's D, ms.")
  in
  let horizon =
    Arg.(value & opt int 40 & info [ "horizon" ] ~docv:"STEPS" ~doc:"Trace length, Rm steps.")
  in
  let run which jitter_ms horizon =
    let rm = 0.05 and mss = 1500. in
    let link_rate = Sim.Units.mbps 8. in
    let big_d = Sim.Units.ms jitter_ms in
    let report name u util =
      Printf.printf
        "%s, D = %.0f ms, %d steps:\n  worst unfairness  %.2f\n  worst utilization %.2f\n"
        name jitter_ms horizon u util
    in
    match which with
    | `Vegas ->
        let cca = Ccac.Model.vegas_model ~rm ~mss ~alpha:3. in
        let u, _ = Ccac.Model.max_unfairness ~cca ~link_rate ~rm ~big_d ~horizon () in
        let util = Ccac.Model.min_utilization ~cca ~link_rate ~rm ~big_d ~horizon () in
        report "vegas (delay-convergent)" u util
    | `Aimd ->
        let cca = Ccac.Model.aimd_model ~rm ~mss in
        let buffer = link_rate *. rm in
        let u, _ =
          Ccac.Model.max_unfairness ~cca ~link_rate ~rm ~big_d ~buffer ~horizon ()
        in
        let util =
          Ccac.Model.min_utilization ~cca ~link_rate ~rm ~big_d ~buffer ~horizon ()
        in
        report "aimd (loss-based, delay-blind)" u util
  in
  Cmd.v
    (Cmd.info "model"
       ~doc:"Bounded adversarial search in the Appendix C discretized model")
    Term.(const run $ which $ jitter_ms $ horizon)

(* ---------------- trace ---------------- *)

let trace_cmd =
  let cca =
    Arg.(
      value
      & opt cca_conv ("bbr", fun () -> Bbr.make ())
      & info [ "cca" ] ~docv:"CCA"
          ~doc:"vegas|fast|copa|bbr|vivace|allegro|reno|cubic|alg1|ledbat|ecn-reno")
  in
  let mbps_f =
    Arg.(value & opt float 24. & info [ "rate" ] ~docv:"MBPS" ~doc:"Link rate, Mbit/s.")
  in
  let rm_ms =
    Arg.(value & opt float 40. & info [ "rtt" ] ~docv:"MS" ~doc:"Propagation RTT, ms.")
  in
  let duration =
    Arg.(value & opt float 20. & info [ "duration" ] ~docv:"SECONDS" ~doc:"Run length.")
  in
  let run (name, make_cca) mbps rm_ms duration =
    let rate = Sim.Units.mbps mbps in
    let rm = Sim.Units.ms rm_ms in
    let net =
      Sim.Network.run_config
        (Sim.Network.config ~rate:(Sim.Link.Constant rate) ~rm ~duration
           [ Sim.Network.flow ~inspect_period:(duration /. 200.) (make_cca ()) ])
    in
    let f = (Sim.Network.flows net).(0) in
    let to_pts ?(scale = fun v -> v) s =
      Array.to_list
        (Array.map2
           (fun t v -> (t, scale v))
           (Sim.Series.times s) (Sim.Series.values s))
    in
    print_string
      (Experiments.Ascii_plot.render
         ~title:(Printf.sprintf "%s on %.0f Mbit/s, Rm = %.0f ms: RTT (ms)" name mbps rm_ms)
         [ ("rtt", to_pts ~scale:Sim.Units.to_ms (Sim.Flow.rtt_series f)) ]);
    print_string
      (Experiments.Ascii_plot.render ~title:"cwnd (packets)"
         [ ("cwnd", to_pts ~scale:(fun v -> v /. 1500.) (Sim.Flow.cwnd_series f)) ]);
    print_string
      (Experiments.Ascii_plot.render ~title:"delivery rate (Mbit/s)"
         [ ("rate", to_pts ~scale:Sim.Units.to_mbps (Sim.Flow.rate_series f ~window:(4. *. rm))) ]);
    (* CCA internals, skipping constants (flat series carry no information). *)
    List.iter
      (fun (k, s) ->
        match Sim.Series.min_max_in s ~t0:0. ~t1:duration with
        | Some (lo, hi) when hi -. lo > 1e-9 && Sim.Series.length s > 2 ->
            print_string
              (Experiments.Ascii_plot.render
                 ~title:(Printf.sprintf "internal: %s" k)
                 [ (k, to_pts s) ])
        | _ -> ())
      (Sim.Flow.inspect_series f);
    Printf.printf "throughput: %s, utilization %.2f\n"
      (Experiments.Report.mbps (Sim.Network.throughputs net ()).(0))
      (Sim.Network.utilization net ())
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run one flow and chart its RTT, cwnd, rate and CCA internals")
    Term.(const run $ cca $ mbps_f $ rm_ms $ duration)

(* ---------------- duel ---------------- *)

let duel_cmd =
  let cca =
    Arg.(
      value
      & opt cca_conv ("copa", fun () -> Copa.make ())
      & info [ "cca" ] ~docv:"CCA"
          ~doc:"vegas|fast|copa|bbr|vivace|allegro|reno|cubic|alg1|ledbat|ecn-reno")
  in
  let mbps_f =
    Arg.(value & opt float 24. & info [ "rate" ] ~docv:"MBPS" ~doc:"Link rate, Mbit/s.")
  in
  let rm_ms =
    Arg.(value & opt float 40. & info [ "rtt" ] ~docv:"MS" ~doc:"Propagation RTT, ms.")
  in
  let jitter_ms =
    Arg.(
      value & opt float 0.
      & info [ "jitter" ] ~docv:"MS"
          ~doc:"Uniform non-congestive delay bound on flow 1's ACK path, ms.")
  in
  let duration =
    Arg.(value & opt float 30. & info [ "duration" ] ~docv:"SECONDS" ~doc:"Run length.")
  in
  let trace_file =
    Arg.(value & opt (some string) None
         & info [ "trace-file" ] ~docv:"PATH"
             ~doc:"Mahimahi mm-link trace for the bottleneck (overrides --rate).")
  in
  let run (_, make_cca) mbps rm_ms jitter_ms duration trace_file =
    let rate =
      match trace_file with
      | Some path -> Sim.Link.load_mahimahi_trace path
      | None -> Sim.Link.Constant (Sim.Units.mbps mbps)
    in
    let rm = Sim.Units.ms rm_ms in
    let d = Sim.Units.ms jitter_ms in
    let flow1 =
      if jitter_ms > 0. then
        Sim.Network.flow ~jitter:(Sim.Jitter.Uniform { lo = 0.; hi = d })
          ~jitter_bound:d (make_cca ())
      else Sim.Network.flow (make_cca ())
    in
    (* A 4-BDP drop-tail buffer: unbounded queues make loss-based CCAs
       spiral into RTO races instead of their normal sawtooth. *)
    let buffer = 4 * Sim.Units.bdp_bytes ~rate:(Sim.Link.rate_at rate 0.) ~rtt:rm in
    let net =
      Sim.Network.run_config
        (Sim.Network.config ~rate ~buffer ~rm ~duration
           [ flow1; Sim.Network.flow (make_cca ()) ])
    in
    let report = Core.Fairness.of_network net () in
    Array.iteri
      (fun i x -> Printf.printf "flow %d: %s\n" i (Experiments.Report.mbps x))
      report.Core.Fairness.throughputs;
    Printf.printf "ratio %.2f, jain %.3f, utilization %.2f\n"
      report.Core.Fairness.ratio report.Core.Fairness.jain
      report.Core.Fairness.utilization
  in
  Cmd.v
    (Cmd.info "duel" ~doc:"Ad-hoc two-flow duel with optional jitter on flow 1")
    Term.(const run $ cca $ mbps_f $ rm_ms $ jitter_ms $ duration $ trace_file)

let () =
  let doc = "Reproduction lab for 'Starvation in End-to-End Congestion Control'" in
  let info = Cmd.info "starvation_lab" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ report_cmd; figures_cmd; export_cmd; convergence_cmd; theorem1_cmd;
            model_cmd; trace_cmd; duel_cmd ]))
