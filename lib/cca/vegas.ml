type params = {
  alpha : float;
  beta : float;
  gamma : float;
  init_cwnd_packets : float;
  mss : int;
}

let default_params =
  { alpha = 2.; beta = 4.; gamma = 1.; init_cwnd_packets = 4.; mss = Cca.default_mss }

(* The state is one row of a {!Columns} arena, indexed directly at
   [base + field] as in {!Reno}: one [Columns.data] read per callback,
   because an [-opaque] accessor call would box every float; for the same
   reason [queued_packets] is inlined, so [on_ack] allocates nothing.
   Booleans live in float cells (0. / 1.); [base_rtt] starts at
   [infinity]. *)

let nfields = 6
let f_cwnd = 0
let f_base_rtt = 1
let f_last_rtt = 2
let f_epoch_start = 3 (* start of the current once-per-RTT epoch *)
let f_slow_start = 4
let f_ss_parity = 5 (* slow start doubles every other RTT *)

let make_in ?(params = default_params) cols =
  if Columns.nfields cols <> nfields then
    invalid_arg "Vegas.make_in: arena has the wrong number of fields";
  let mss = float_of_int params.mss in
  let r = Columns.alloc cols in
  let b = r * nfields in
  let reset () =
    let d = Columns.data cols in
    d.(b + f_cwnd) <- params.init_cwnd_packets *. mss;
    d.(b + f_base_rtt) <- infinity;
    d.(b + f_last_rtt) <- 0.;
    d.(b + f_epoch_start) <- 0.;
    d.(b + f_slow_start) <- 1.;
    d.(b + f_ss_parity) <- 0.
  in
  reset ();
  let[@inline] queued_packets d =
    let last_rtt = d.(b + f_last_rtt) and base_rtt = d.(b + f_base_rtt) in
    if last_rtt <= 0. || base_rtt = infinity then 0.
    else d.(b + f_cwnd) /. mss *. ((last_rtt -. base_rtt) /. last_rtt)
  in
  let per_rtt_update d =
    let diff = queued_packets d in
    if d.(b + f_slow_start) = 1. then begin
      if diff > params.gamma then d.(b + f_slow_start) <- 0.
      else begin
        d.(b + f_ss_parity) <- 1. -. d.(b + f_ss_parity);
        if d.(b + f_ss_parity) = 1. then d.(b + f_cwnd) <- d.(b + f_cwnd) *. 2.
      end
    end;
    if d.(b + f_slow_start) <> 1. then begin
      if diff < params.alpha then d.(b + f_cwnd) <- d.(b + f_cwnd) +. mss
      else if diff > params.beta then d.(b + f_cwnd) <- d.(b + f_cwnd) -. mss
    end;
    d.(b + f_cwnd) <- Float.max d.(b + f_cwnd) (2. *. mss)
  in
  let on_ack (a : Cca.ack_info) =
    let d = Columns.data cols in
    if a.rtt < d.(b + f_base_rtt) then d.(b + f_base_rtt) <- a.rtt;
    d.(b + f_last_rtt) <- a.rtt;
    if a.now -. d.(b + f_epoch_start) >= a.rtt then begin
      d.(b + f_epoch_start) <- a.now;
      per_rtt_update d
    end
  in
  let on_loss (l : Cca.loss_info) =
    let d = Columns.data cols in
    match l.kind with
    | `Timeout -> d.(b + f_cwnd) <- 2. *. mss
    | `Dupack -> d.(b + f_cwnd) <- Float.max (d.(b + f_cwnd) /. 2.) (2. *. mss)
  in
  let cca =
    {
      Cca.name = "vegas";
      on_ack;
      on_loss;
      on_send = (fun _ -> ());
      on_timer = (fun _ -> ());
      next_timer = (fun () -> None);
      cwnd = (fun () -> (Columns.data cols).(b + f_cwnd));
      pacing_rate = (fun () -> None);
      inspect =
        (fun () ->
          let d = Columns.data cols in
          [
            ("cwnd", d.(b + f_cwnd));
            ("base_rtt", d.(b + f_base_rtt));
            ("queued_packets", queued_packets d);
            ("slow_start", d.(b + f_slow_start));
          ]);
    }
  in
  { Cca.cca; reset = Some reset; release = (fun () -> Columns.free cols r) }

let make ?params () = (make_in ?params (Columns.create ~capacity:1 ~nfields ())).Cca.cca

let equilibrium_rtt p ~rate ~rm =
  let target = (p.alpha +. p.beta) /. 2. in
  rm +. (target *. float_of_int p.mss /. rate)
