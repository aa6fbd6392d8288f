let rate = Sim.Units.mbps 48.
let rm = 0.04

let head_to_head ~make_cca ~ecn ~duration =
  let buffer = Sim.Units.bdp_bytes ~rate ~rtt:rm in
  let aqm =
    if ecn then Some (Sim.Aqm.threshold ~mark_above:(buffer / 4)) else None
  in
  let net =
    Sim.Network.run_config
      (Sim.Network.config ~rate:(Sim.Link.Constant rate) ~buffer ?aqm ~rm
         ~duration
         [
           Sim.Network.flow ~loss_rate:0.02 (make_cca ());
           Sim.Network.flow (make_cca ());
         ])
  in
  let t0 = duration /. 2. in
  ( Sim.Network.throughput net ~flow:0 ~t0 ~t1:duration,
    Sim.Network.throughput net ~flow:1 ~t0 ~t1:duration,
    Sim.Link.ce_marks (Sim.Network.link net) )

let run ?(quick = false) () =
  let duration = if quick then 30. else 90. in
  let x1_reno, x2_reno, _ =
    head_to_head ~make_cca:(fun () -> Reno.make ()) ~ecn:false ~duration
  in
  let x1_ecn, x2_ecn, marks =
    head_to_head ~make_cca:(fun () -> Ecn_reno.make ()) ~ecn:true ~duration
  in
  let ratio a b = Float.max a b /. Float.max (Float.min a b) 1. in
  [
    Report.row ~id:"E13a" ~label:"reno, 2% non-congestive loss on flow 1"
      ~paper:"loss-based CCAs starve under asymmetric loss (sec. 5.4)"
      ~measured:
        (Printf.sprintf "%s vs %s (ratio %.1f)" (Report.mbps x1_reno)
           (Report.mbps x2_reno) (ratio x1_reno x2_reno))
      ~ok:(ratio x1_reno x2_reno > 3.);
    Report.row ~id:"E13b" ~label:"ecn-reno + marking AQM, same loss"
      ~paper:"conjecture: ECN avoids starvation (sec. 6.4)"
      ~measured:
        (Printf.sprintf "%s vs %s (ratio %.1f, %d CE marks)" (Report.mbps x1_ecn)
           (Report.mbps x2_ecn) (ratio x1_ecn x2_ecn) marks)
        (* The lossy flow still drops 2% of its goodput and takes the odd
           retransmission timeout, so exact equality is not expected — the
           claim is the order-of-magnitude repair vs. plain Reno. *)
      ~ok:
        (ratio x1_ecn x2_ecn < 3.
        && ratio x1_ecn x2_ecn < ratio x1_reno x2_reno /. 3.
        && x1_ecn +. x2_ecn > 0.7 *. rate
        && marks > 0);
  ]
