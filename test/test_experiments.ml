(* Tests for the experiment layer: the report formatting, the registry,
   and every registered experiment end-to-end in quick mode, through the
   same plan-and-merge path `repro` runs.  The scenario experiments run
   as `Slow cases (picked up by `dune runtest` but kept out of quick
   iteration via ALCOTEST_QUICK_TESTS). *)

let test_report_row () =
  let r =
    Experiments.Report.row ~id:"X" ~label:"case" ~paper:"p" ~measured:"m" ~ok:true
  in
  Alcotest.(check string) "id" "X" r.Experiments.Report.id;
  Alcotest.(check bool) "all_ok true" true (Experiments.Report.all_ok [ r ]);
  let bad = { r with Experiments.Report.ok = false } in
  Alcotest.(check bool) "all_ok false" false (Experiments.Report.all_ok [ r; bad ])

let test_report_markdown () =
  let rows =
    [
      Experiments.Report.row ~id:"X1" ~label:"case a" ~paper:"p" ~measured:"m" ~ok:true;
      Experiments.Report.row ~id:"X2" ~label:"case b" ~paper:"q" ~measured:"n" ~ok:false;
    ]
  in
  let md = Experiments.Report.to_markdown ~title:"T" rows in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "title" true (contains md "## T");
  Alcotest.(check bool) "row" true (contains md "| X1 | case a | p | m | yes |");
  Alcotest.(check bool) "failure bolded" true (contains md "**NO**")

let test_report_formatting () =
  Alcotest.(check string) "mbps" "12.00 Mbit/s"
    (Experiments.Report.mbps (Sim.Units.mbps 12.));
  Alcotest.(check string) "msec" "42.00 ms" (Experiments.Report.msec 0.042)

let test_registry_complete () =
  Alcotest.(check (list string)) "every paper artifact and extension, in order"
    [ "fig1"; "fig3"; "copa"; "bbr"; "vivace"; "fig7"; "allegro"; "theorem1";
      "theorem2"; "alg1"; "ccac"; "ecn"; "threshold"; "isolation"; "robustness";
      "matrix"; "faults"; "census"; "validate" ]
    (Experiments.Registry.keys ())

let test_registry_find () =
  Alcotest.(check bool) "find copa" true (Experiments.Registry.find "copa" <> None);
  Alcotest.(check bool) "find nonsense" true
    (Experiments.Registry.find "nonsense" = None)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_registry_select () =
  (match Experiments.Registry.select [] with
  | Ok es ->
      Alcotest.(check int) "empty selection = all"
        (List.length Experiments.Registry.all)
        (List.length es)
  | Error e -> Alcotest.failf "empty selection rejected: %s" e);
  (match Experiments.Registry.select [ "copa"; "census" ] with
  | Ok es ->
      Alcotest.(check (list string)) "subset in request order"
        [ "copa"; "census" ]
        (List.map (fun e -> e.Experiments.Registry.key) es)
  | Error e -> Alcotest.failf "valid subset rejected: %s" e);
  match Experiments.Registry.select [ "copa"; "badkey" ] with
  | Ok _ -> Alcotest.fail "unknown key accepted"
  | Error msg ->
      Alcotest.(check bool) "names the offender" true (contains msg "badkey");
      Alcotest.(check bool) "advertises alternatives" true
        (contains msg "available:");
      List.iter
        (fun k ->
          Alcotest.(check bool) ("error lists " ^ k) true (contains msg k))
        (Experiments.Registry.keys ())

let test_registry_keys_round_trip_plan () =
  (* Every advertised key must resolve through [select] and, under every
     backend it supports, produce a non-empty job plan — the contract
     `repro list` relies on.  The one unsupported pair, census x hybrid,
     must be refused with a message naming the experiment, the backend
     and the backends the census does support. *)
  List.iter
    (fun key ->
      match Experiments.Registry.select [ key ] with
      | Error e -> Alcotest.failf "%s does not select: %s" key e
      | Ok [ e ] ->
          List.iter
            (fun backend ->
              let name = Fluid.Backend.to_string backend in
              match Experiments.Registry.supported backend [ e ] with
              | Ok _ ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s is supported under %s" key name)
                    false
                    (key = "census" && backend = Fluid.Backend.Hybrid);
                  let p = e.Experiments.Registry.plan ~quick:true ~backend in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s plans jobs under %s" key name)
                    true
                    (p.Experiments.Registry.jobs <> [])
              | Error msg ->
                  Alcotest.(check (pair string string))
                    "only census x hybrid is refused" ("census", "hybrid")
                    (key, name);
                  Alcotest.(check string) "refusal names all three"
                    "experiment census does not support backend hybrid \
                     (supported: packet, fluid)"
                    msg)
            Fluid.Backend.all
      | Ok es ->
          Alcotest.failf "%s selected %d experiments" key (List.length es))
    (Experiments.Registry.keys ())

(* The same refusal guards [run_selection] itself: nothing is planned or
   run for an unsupported backend. *)
let test_registry_rejects_unsupported_backend () =
  match Experiments.Registry.select [ "census" ] with
  | Error e -> Alcotest.fail e
  | Ok es ->
      Alcotest.check_raises "census x hybrid"
        (Invalid_argument
           "experiment census does not support backend hybrid (supported: \
            packet, fluid)")
        (fun () ->
          ignore
            (Experiments.Registry.run_selection ~quick:true
               ~sim_backend:Fluid.Backend.Hybrid es))

(* A one-job experiment built outside the registry, so [run_selection]'s
   single supervised path can be driven with jobs that fail on purpose. *)
let one_job_experiment key (f : unit -> int) =
  {
    Experiments.Registry.key;
    title = "test " ^ key;
    backends = Fluid.Backend.all;
    plan =
      (fun ~quick:_ ~backend:_ ->
        {
          Experiments.Registry.jobs = [ Runner.Job.create ~key f ];
          merge =
            List.map (fun b ->
                Experiments.Report.row ~id:key ~label:"payload" ~paper:"42"
                  ~measured:(string_of_int (Runner.Job.decode b))
                  ~ok:true);
        });
  }

(* No [~policy]: the default policy still retries a job that fails once
   (the marker file records the first attempt). *)
let test_run_selection_retries_by_default () =
  let marker = Filename.temp_file "registry_flaky" ".marker" in
  Sys.remove marker;
  let flaky () =
    if not (Sys.file_exists marker) then begin
      Out_channel.with_open_bin marker (fun oc ->
          Out_channel.output_string oc "x");
      failwith "flaky: first attempt"
    end;
    42
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove marker with Sys_error _ -> ())
    (fun () ->
      let rows, stats =
        Experiments.Registry.run_selection ~workers:1
          [ one_job_experiment "test/flaky" flaky ]
      in
      Alcotest.(check (list string)) "merged the retried payload" [ "42" ]
        (List.map (fun r -> r.Experiments.Report.measured) rows);
      Alcotest.(check int) "retried once" 1 stats.Runner.Pool.retried)

(* No [~policy]: [allow_failures] still skips the experiment instead of
   raising. *)
let test_run_selection_allow_failures_by_default () =
  let rows, stats =
    Experiments.Registry.run_selection ~workers:1 ~allow_failures:true
      [
        one_job_experiment "test/broken" (fun () ->
            failwith "test/broken: always fails");
      ]
  in
  Alcotest.(check int) "experiment skipped, no rows" 0 (List.length rows);
  Alcotest.(check int) "quarantine counted" 1 stats.Runner.Pool.quarantined

(* `repro list` must advertise exactly the registry: exercised against
   the real driver binary, same pattern as the exit-code tests in
   test_runner. *)
let repro_exe = "../bin/repro.exe"

let test_repro_list_smoke () =
  if not (Sys.file_exists repro_exe) then ()
  else begin
    let out_file = Filename.temp_file "repro_list" ".out" in
    let status =
      Sys.command
        (Printf.sprintf "%s list >%s 2>/dev/null" repro_exe
           (Filename.quote out_file))
    in
    let ic = open_in out_file in
    let n = in_channel_length ic in
    let out = really_input_string ic n in
    close_in ic;
    Sys.remove out_file;
    Alcotest.(check int) "exit 0" 0 status;
    let lines =
      List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
    in
    Alcotest.(check (list string)) "one key per line, registry order"
      (Experiments.Registry.keys ())
      lines
  end

let test_merit_rows () =
  let rows = Experiments.Exp_alg1.merit_rows () in
  Alcotest.(check int) "3 jitters x 3 s" 9 (List.length rows)

let test_copa_poison_trace_is_legal () =
  (* The poison schedule must stay within the declared 1 ms bound. *)
  for i = 0 to 1000 do
    let t = float_of_int i *. 0.01 in
    let d = Experiments.Exp_copa.poison_trace t in
    Alcotest.(check bool) "in [0, 1ms]" true (d >= 0. && d <= 0.001)
  done

let run_rows name rows =
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s / %s %s: %s" name r.Experiments.Report.id
           r.Experiments.Report.label r.Experiments.Report.measured)
        true r.Experiments.Report.ok)
    rows

(* One end-to-end case per registered experiment (quick mode), run
   serially through [run_selection] — the code `repro` runs.  Only the
   model checker is fast enough for quick iteration. *)
let end_to_end =
  List.map
    (fun e ->
      let key = e.Experiments.Registry.key in
      Alcotest.test_case key
        (if key = "ccac" then `Quick else `Slow)
        (fun () ->
          run_rows key
            (fst (Experiments.Registry.run_selection ~quick:true [ e ]))))
    Experiments.Registry.all

let test_series_to_rows_stride () =
  let s = Sim.Series.create () in
  for i = 0 to 9 do
    Sim.Series.add s ~time:(float_of_int i) (float_of_int (i * i))
  done;
  Alcotest.(check int) "stride 3 keeps 4" 4
    (List.length (Experiments.Export.series_to_rows ~stride:3 s));
  Alcotest.(check int) "stride 1 keeps all" 10
    (List.length (Experiments.Export.series_to_rows s))

let test_threshold_sweep_escalates () =
  let pts = Experiments.Exp_threshold.sweep ~quick:true () in
  Alcotest.(check bool) "several points" true (List.length pts >= 3);
  let first = List.hd pts and last = List.nth pts (List.length pts - 1) in
  Alcotest.(check bool)
    (Printf.sprintf "ratio rises with D (%.1f -> %.1f)"
       first.Experiments.Exp_threshold.ratio last.Experiments.Exp_threshold.ratio)
    true
    (last.Experiments.Exp_threshold.ratio
    > 2. *. first.Experiments.Exp_threshold.ratio)

(* E19's two backends run one population: for every cell, the packet
   engine's flows and the fluid census's flows are the same
   (arrival, size) sequence, drawn under one key. *)
let test_census_backends_share_population () =
  List.iter
    (fun ((p : Sim.Population.config), (f : Fluid.Census.config)) ->
      Alcotest.(check string) "one population key" p.key f.key;
      let packet = Sim.Population.flows p and fluid = Fluid.Census.flows f in
      for i = 0 to p.n - 1 do
        let ((ta, sa) as a) = Sim.Population.next packet
        and b = Sim.Population.next fluid in
        if a <> b then
          Alcotest.failf "%s flow %d: packet (%g, %d), fluid (%g, %d)" p.key i
            ta sa (fst b) (snd b)
      done)
    (Experiments.Exp_census.cell_configs ~quick:true)

let test_export_csv () =
  let dir = Filename.temp_file "ccstarve" "" in
  Sys.remove dir;
  let rows = [ [ 1.; 2. ]; [ 3.; 4. ] ] in
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "t.csv" in
  Experiments.Export.write_csv ~path ~cols:[ "a"; "b" ] rows;
  let ic = open_in path in
  let header = input_line ic in
  let first = input_line ic in
  close_in ic;
  Alcotest.(check string) "header" "a,b" header;
  Alcotest.(check string) "row" "1,2" first

let test_export_write () =
  let dir = Filename.temp_file "ccstarve" "" in
  Sys.remove dir;
  let table name rows =
    { Experiments.Export.name; cols = [ "t"; "v" ]; rows }
  in
  let paths =
    Experiments.Export.write ~dir
      [ table "one" [ [ 0.; 1. ] ]; table "two" [ [ 0.; 2. ]; [ 1.; 3. ] ] ]
  in
  Alcotest.(check (list string)) "one file per table, in order"
    [ Filename.concat dir "one.csv"; Filename.concat dir "two.csv" ]
    paths;
  let ic = open_in (Filename.concat dir "two.csv") in
  let lines = List.init 3 (fun _ -> input_line ic) in
  close_in ic;
  Alcotest.(check (list string)) "header and rows" [ "t,v"; "0,2"; "1,3" ]
    lines

(* ------------------------------------------------------------------ *)
(* ASCII plots                                                         *)
(* ------------------------------------------------------------------ *)

let test_plot_empty () =
  Alcotest.(check string) "stub" "(no data)\n" (Experiments.Ascii_plot.render []);
  Alcotest.(check string) "stub for empty series" "(no data)\n"
    (Experiments.Ascii_plot.render [ ("a", []) ])

let test_plot_contains_markers_and_labels () =
  let out =
    Experiments.Ascii_plot.render ~title:"T" ~width:40 ~height:10
      [ ("up", [ (0., 0.); (1., 1.) ]); ("down", [ (0., 1.); (1., 0.) ]) ]
  in
  Alcotest.(check bool) "title present" true
    (String.length out > 0 && String.sub out 0 1 = "T");
  Alcotest.(check bool) "marker 1" true (String.contains out '*');
  Alcotest.(check bool) "marker 2" true (String.contains out '+');
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "legend up" true (contains out "* up");
  Alcotest.(check bool) "legend down" true (contains out "+ down")

let test_plot_dimensions () =
  let out =
    Experiments.Ascii_plot.render ~width:30 ~height:8 [ ("s", [ (0., 5.); (2., 7.) ]) ]
  in
  let lines = String.split_on_char '\n' out in
  (* 8 canvas rows + axis + x labels + legend, no title. *)
  Alcotest.(check bool) "row count sane" true
    (List.length lines >= 11 && List.length lines <= 13);
  (* Every canvas row has the axis bar. *)
  let canvas_rows = List.filteri (fun i _ -> i < 8) lines in
  List.iter
    (fun l -> Alcotest.(check bool) "axis bar" true (String.contains l '|'))
    canvas_rows

let test_plot_render_series_wrapper () =
  let s = Sim.Series.create () in
  Sim.Series.add s ~time:0. 1.;
  Sim.Series.add s ~time:1. 2.;
  let out = Experiments.Ascii_plot.render_series ~title:"W" ("wrapped", s) in
  Alcotest.(check bool) "has marker" true (String.contains out '*');
  Alcotest.(check bool) "has title" true (String.length out > 0 && out.[0] = 'W')

let test_registry_titles_nonempty () =
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (e.Experiments.Registry.key ^ " has a title")
        true
        (String.length e.Experiments.Registry.title > 10))
    Experiments.Registry.all

let test_plot_degenerate_point () =
  (* A single point must not crash or divide by zero. *)
  let out = Experiments.Ascii_plot.render [ ("pt", [ (1., 1.) ]) ] in
  Alcotest.(check bool) "renders" true (String.contains out '*')

let () =
  Alcotest.run "experiments"
    [
      ( "report",
        [
          Alcotest.test_case "row" `Quick test_report_row;
          Alcotest.test_case "formatting" `Quick test_report_formatting;
          Alcotest.test_case "markdown" `Quick test_report_markdown;
        ] );
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "select" `Quick test_registry_select;
          Alcotest.test_case "keys round-trip plan" `Quick
            test_registry_keys_round_trip_plan;
          Alcotest.test_case "rejects unsupported backend" `Quick
            test_registry_rejects_unsupported_backend;
          Alcotest.test_case "repro list" `Quick test_repro_list_smoke;
          Alcotest.test_case "run_selection retries by default" `Quick
            test_run_selection_retries_by_default;
          Alcotest.test_case "run_selection allow_failures by default" `Quick
            test_run_selection_allow_failures_by_default;
        ] );
      ( "static",
        [
          Alcotest.test_case "merit rows" `Quick test_merit_rows;
          Alcotest.test_case "poison trace legal" `Quick test_copa_poison_trace_is_legal;
          Alcotest.test_case "census backends share a population" `Quick
            test_census_backends_share_population;
        ] );
      ( "end-to-end",
        end_to_end
        @ [
            Alcotest.test_case "threshold escalates" `Slow
              test_threshold_sweep_escalates;
          ] );
      ( "export",
        [
          Alcotest.test_case "csv" `Quick test_export_csv;
          Alcotest.test_case "write" `Quick test_export_write;
          Alcotest.test_case "stride" `Quick test_series_to_rows_stride;
        ] );
      ( "ascii_plot",
        [
          Alcotest.test_case "empty" `Quick test_plot_empty;
          Alcotest.test_case "markers and labels" `Quick
            test_plot_contains_markers_and_labels;
          Alcotest.test_case "dimensions" `Quick test_plot_dimensions;
          Alcotest.test_case "degenerate point" `Quick test_plot_degenerate_point;
          Alcotest.test_case "render_series" `Quick test_plot_render_series_wrapper;
          Alcotest.test_case "registry titles" `Quick test_registry_titles_nonempty;
        ] );
    ]
