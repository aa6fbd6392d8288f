(* Tests for lib/fluid: the backend selector, the fixed-step fluid
   engine's byte ledger and determinism, the fluid census, and the
   cross-validation oracles in lib/validate/fluid_oracle. *)

let qt = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Backend selector                                                    *)
(* ------------------------------------------------------------------ *)

let test_backend_round_trip () =
  List.iter
    (fun b ->
      let s = Fluid.Backend.to_string b in
      match Fluid.Backend.of_string s with
      | Ok b' ->
          Alcotest.(check string)
            (Printf.sprintf "round-trip %s" s)
            s
            (Fluid.Backend.to_string b')
      | Error e -> Alcotest.failf "round-trip %s rejected: %s" s e)
    Fluid.Backend.all;
  (match Fluid.Backend.of_string "FLUID" with
  | Ok Fluid.Backend.Fluid -> ()
  | _ -> Alcotest.fail "of_string is case-insensitive");
  match Fluid.Backend.of_string "quantum" with
  | Ok _ -> Alcotest.fail "unknown backend accepted"
  | Error msg ->
      List.iter
        (fun b ->
          let name = Fluid.Backend.to_string b in
          let mentions =
            let len = String.length name in
            let n = String.length msg in
            let rec scan i =
              i + len <= n && (String.sub msg i len = name || scan (i + 1))
            in
            scan 0
          in
          Alcotest.(check bool)
            (Printf.sprintf "error names %s" name)
            true mentions)
        Fluid.Backend.all

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let engine_config ?(rate = 1.25e6) ?(rm = 0.04) ?(duration = 30.)
    ?(nflows = 2) law =
  let flows =
    List.init nflows (fun _ -> Fluid.Engine.flow ~mss:1500. law)
  in
  Fluid.Engine.config ~rate ~buffer:(2. *. rate *. rm) ~rm ~duration flows

(* Late-starting, finite-size flows of the same law, admitted between
   steps: they cover [admit], completion and the hand-off of a completed
   flow's leftover backlog to the phantom queue. *)
let late_flows = [ (2., 2e5); (5., 5e4); (5., 1e6); (12., 3e5) ]

let run_with_late cfg ~law late =
  let eng = Fluid.Engine.create cfg in
  let pending = ref (List.sort compare late) in
  while not (Fluid.Engine.finished eng) do
    let rec admit_due () =
      match !pending with
      | (start, size) :: rest when start <= Fluid.Engine.now eng ->
          Fluid.Engine.admit eng (Fluid.Engine.flow ~size law);
          pending := rest;
          admit_due ()
      | _ -> ()
    in
    admit_due ();
    Fluid.Engine.step eng
  done;
  eng

let test_engine_conservation () =
  List.iter
    (fun (name, law) ->
      List.iter
        (fun (input, late) ->
          let eng = run_with_late (engine_config law) ~law late in
          let accepted = Fluid.Engine.accepted_total eng in
          let err = Fluid.Engine.conservation_error eng in
          Alcotest.(check bool)
            (Printf.sprintf "%s, %s: flows actually sent" name input)
            true (accepted > 0.);
          Alcotest.(check bool)
            (Printf.sprintf "%s, %s: ledger closes (err %.3g)" name input err)
            true
            (err <= 1. +. 1e-6 *. accepted))
        [ ("two streams", []); ("plus late sized flows", late_flows) ])
    [
      ("reno", Ccac.Model.reno_fluid);
      ("copa", Ccac.Model.copa_fluid ());
      ("vegas", Ccac.Model.vegas_fluid ());
    ]

let test_engine_completion () =
  let law = Ccac.Model.copa_fluid () in
  let eng = run_with_late (engine_config law) ~law late_flows in
  let n = 2 + List.length late_flows in
  Alcotest.(check int) "every late flow completes" (List.length late_flows)
    (Fluid.Engine.completions eng);
  Alcotest.(check int) "the streams stay live" 2 (Fluid.Engine.live eng);
  for i = 2 to n - 1 do
    let g = Fluid.Engine.goodput eng i in
    Alcotest.(check bool)
      (Printf.sprintf "completed flow %d keeps its goodput (%g B/s)" i g)
      true
      (Float.is_finite g && g > 0.)
  done;
  Alcotest.check_raises "a completed flow has no window"
    (Invalid_argument "Fluid.Engine: flow has completed") (fun () ->
      ignore (Fluid.Engine.flow_cwnd eng 2))

let test_engine_deterministic () =
  let run late =
    let law = Ccac.Model.reno_fluid in
    let eng = run_with_late (engine_config law) ~law late in
    ( Fluid.Engine.steps eng,
      Int64.bits_of_float (Fluid.Engine.served_total eng),
      Int64.bits_of_float (Fluid.Engine.queue_bytes eng),
      Int64.bits_of_float (Fluid.Engine.flow_cwnd eng 0),
      List.init (List.length late) (fun i ->
          Int64.bits_of_float (Fluid.Engine.goodput eng (2 + i))) )
  in
  List.iter
    (fun late ->
      Alcotest.(check bool)
        "bitwise-identical reruns" true
        (run late = run late))
    [ []; late_flows ]

let test_engine_symmetric_fairness () =
  (* Two identical Reno flows on one link: equilibrium shares within a
     sawtooth band of each other, and the link is near-saturated. *)
  let rate = 1.25e6 in
  let eng =
    Fluid.Engine.run_config
      (engine_config ~rate ~duration:60. Ccac.Model.reno_fluid)
  in
  let r0 = Fluid.Engine.goodput eng 0 and r1 = Fluid.Engine.goodput eng 1 in
  let ratio = Float.max r0 r1 /. Float.min r0 r1 in
  Alcotest.(check bool)
    (Printf.sprintf "throughput ratio %.3f < 1.5" ratio)
    true (ratio < 1.5);
  let util = (r0 +. r1) /. rate in
  Alcotest.(check bool)
    (Printf.sprintf "utilisation %.2f in [0.6, 1.01]" util)
    true
    (util > 0.6 && util < 1.01)

let prop_engine_conservation =
  QCheck.Test.make ~name:"fluid ledger closes for arbitrary small configs"
    ~count:25
    QCheck.(
      quad (1 -- 4)
        (float_range 2.5e5 5e6)
        (float_range 0.01 0.08)
        (small_list (pair (float_range 0. 15.) (float_range 1e4 1e6))))
    (fun (nflows, rate, rm, late) ->
      let law = Ccac.Model.copa_fluid () in
      let eng =
        run_with_late
          (engine_config ~nflows ~rate ~rm ~duration:20. law)
          ~law late
      in
      Fluid.Engine.conservation_error eng
      <= 1. +. (1e-6 *. Fluid.Engine.accepted_total eng))

(* ------------------------------------------------------------------ *)
(* Census                                                              *)
(* ------------------------------------------------------------------ *)

let test_census_smoke () =
  let n = 300 in
  let mss = 1500. in
  let cfg =
    Fluid.Census.config ~key:"test/fluid-census" ~seed:42 ~n ~duration:120.
      ~arrival_frac:0.6 ~rate:7.5e6 ~rm:0.04 ~mss ~jitter_d:0.01 ~alpha:1.5
      ~xm:(10. *. mss) ~size_cap:(3000. *. mss)
      (Ccac.Model.copa_fluid ())
  in
  let res = Fluid.Census.run cfg in
  Alcotest.(check int) "goodput per flow" n (Array.length res.Fluid.Census.goodputs);
  Alcotest.(check bool) "most flows complete" true
    (res.Fluid.Census.completed > n / 2);
  Alcotest.(check bool) "population overlapped" true
    (res.Fluid.Census.peak_active > 1);
  Alcotest.(check bool) "goodputs finite and non-negative" true
    (Array.for_all
       (fun g -> Float.is_finite g && g >= 0.)
       res.Fluid.Census.goodputs);
  Alcotest.(check bool) "census ledger closes" true
    (res.Fluid.Census.conservation_error
    <= 1. +. (1e-6 *. res.Fluid.Census.offered_bytes))

let test_census_deterministic () =
  let cfg () =
    Fluid.Census.config ~key:"test/fluid-census-det" ~seed:7 ~n:120
      ~duration:60. ~arrival_frac:0.6 ~rate:7.5e6 ~rm:0.04 ~mss:1500.
      ~jitter_d:0.005 ~alpha:1.5 ~xm:15000. ~size_cap:1.5e6
      (Ccac.Model.vegas_fluid ())
  in
  let a = Fluid.Census.run (cfg ()) and b = Fluid.Census.run (cfg ()) in
  Alcotest.(check int) "same completions" a.Fluid.Census.completed
    b.Fluid.Census.completed;
  Alcotest.(check bool) "bitwise-identical goodputs" true
    (Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       a.Fluid.Census.goodputs b.Fluid.Census.goodputs)

(* ------------------------------------------------------------------ *)
(* Cross-validation oracles                                            *)
(* ------------------------------------------------------------------ *)

let check_verdicts name vs =
  Alcotest.(check bool) "ran something" true (vs <> []);
  match Validate.Oracle.failures vs with
  | [] -> ()
  | fs ->
      Alcotest.failf "%s: %d oracle failure(s):\n%s" name (List.length fs)
        (String.concat "\n" (List.map Validate.Oracle.to_string fs))

let test_fluid_oracle_agreement () =
  check_verdicts "fluid-vs-packet agreement"
    (Validate.Fluid_oracle.all ~quick:true ())

let test_hybrid_threshold () =
  check_verdicts "hybrid threshold"
    (Validate.Fluid_oracle.hybrid_threshold ())

let () =
  Alcotest.run "fluid"
    [
      ( "backend",
        [ Alcotest.test_case "round trip" `Quick test_backend_round_trip ] );
      ( "engine",
        [
          Alcotest.test_case "conservation" `Quick test_engine_conservation;
          Alcotest.test_case "completion" `Quick test_engine_completion;
          Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
          Alcotest.test_case "symmetric fairness" `Quick
            test_engine_symmetric_fairness;
          qt prop_engine_conservation;
        ] );
      ( "census",
        [
          Alcotest.test_case "smoke" `Quick test_census_smoke;
          Alcotest.test_case "deterministic" `Quick test_census_deterministic;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "fluid vs packet" `Slow test_fluid_oracle_agreement;
          Alcotest.test_case "hybrid threshold" `Slow test_hybrid_threshold;
        ] );
    ]
