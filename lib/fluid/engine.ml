(* Fixed-step discretised fluid simulation of n flows on one bottleneck.

   Each step of length dt, over the live flows in flow-index order:
   - every live flow observes delay = rm + q/C + jitter(t) and offers
     rate * dt bytes, where rate = cwnd / delay (self-clocking: the
     window spread over the observed RTT);
   - arrivals are clipped by the free room buffer + C*dt - q; the
     clipped fraction is dropped *proportionally* across offering
     flows and flagged as this epoch's loss signal — the same
     proportional-overflow rule the CCAC model step uses;
   - the queue serves min(q, C*dt) bytes, split across backlogged
     flows in proportion to their backlog (the neutral FIFO
     approximation);
   - a flow whose last epoch started one observed-RTT ago advances its
     CCA state via the law's per-RTT update;
   - a sized flow whose bytes have all been served completes: it leaves
     the live set (its law state with it), its goodput is kept, and any
     backlog it still has joins the phantom queue.

   Flows enter the live set at [create] (the configured flows) or
   through [admit] between steps, so a step costs O(live flows), not
   O(flows ever admitted).

   The engine keeps an exact byte ledger (accepted + initial queue =
   served + final queue, up to float rounding; completed flows carry
   their totals into running sums) that the fluid conservation oracle
   checks. *)

type flow_spec = {
  law : Ccac.Model.fluid;
  jitter : float -> float;
  size : float;
  mss : float;
}

let flow ?(jitter = fun _ -> 0.) ?(size = infinity) ?(mss = 1500.) law =
  if mss <= 0. then invalid_arg "Fluid.Engine.flow: mss <= 0";
  if size <= 0. then invalid_arg "Fluid.Engine.flow: size <= 0";
  { law; jitter; size; mss }

type config = {
  rate : float;
  buffer : float;
  rm : float;
  dt : float;
  t0 : float;
  duration : float;
  measure_from : float;
  initial_queue : float;
  flows : flow_spec array;
}

let config ~rate ?(buffer = infinity) ~rm ?dt ?(t0 = 0.) ?measure_from
    ?(initial_queue = 0.) ~duration flows =
  let dt = match dt with Some d -> d | None -> rm /. 8. in
  if rate <= 0. || rm <= 0. || dt <= 0. || duration < 0. || initial_queue < 0.
  then invalid_arg "Fluid.Engine.config";
  let measure_from = Option.value measure_from ~default:t0 in
  { rate; buffer; rm; dt; t0; duration; measure_from; initial_queue;
    flows = Array.of_list flows }

(* A flow's running figures: all floats, so OCaml stores them unboxed
   and the step's updates allocate nothing. *)
type figures = {
  mutable min_d : float;
  mutable last_d : float;
  mutable epoch_start : float;
  mutable epoch_acked : float;
  mutable accepted : float;
  mutable served : float;
  mutable counted : float;
  t_start : float;
}

type fstate = {
  index : int;
  spec : flow_spec;
  state : float array;
  mutable epoch_lost : bool;
  v : figures;
}

let figures t =
  { min_d = infinity; last_d = infinity; epoch_start = t; epoch_acked = 0.;
    accepted = 0.; served = 0.; counted = 0.; t_start = t }

(* Fills the unused tail of [live] and the entries of completed flows
   in [fl]; never stepped. *)
let vacant =
  { index = -1; spec = flow Ccac.Model.reno_fluid; state = [||];
    epoch_lost = false; v = figures 0. }

type t = {
  cfg : config;
  mutable fl : fstate array;  (* by flow index; [vacant] once completed *)
  mutable goodputs : float array;  (* by flow index, set at completion *)
  mutable live : fstate array;  (* live.(0 .. n_live-1), index order *)
  mutable want : float array;  (* per-step scratch, parallel to [live] *)
  mutable n_live : int;
  mutable completions : int;
  mutable now : float;
  mutable q : float;
  mutable phantom : float;  (* queued backlog not owned by a live flow *)
  mutable phantom_served : float;
  mutable offered : float;
  mutable retired_accepted : float;
  mutable retired_served : float;
  mutable q_integral : float;
  mutable measured_time : float;
  mutable steps : int;
}

let cwnd f = f.spec.law.Ccac.Model.f_cwnd f.state

let grow a n fill =
  if n < Array.length a then a
  else begin
    let b = Array.make (max 8 (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let admit eng spec =
  let i = eng.n_live + eng.completions in
  let f =
    { index = i; spec; state = spec.law.Ccac.Model.f_init ~mss:spec.mss;
      epoch_lost = false; v = figures eng.now }
  in
  eng.fl <- grow eng.fl i vacant;
  eng.goodputs <- grow eng.goodputs i 0.;
  eng.fl.(i) <- f;
  eng.live <- grow eng.live eng.n_live vacant;
  eng.want <- grow eng.want eng.n_live 0.;
  eng.live.(eng.n_live) <- f;
  eng.n_live <- eng.n_live + 1

let create cfg =
  let n = Array.length cfg.flows in
  let eng =
    { cfg;
      fl = Array.make n vacant; goodputs = Array.make n 0.;
      live = Array.make n vacant; want = Array.make n 0.; n_live = 0;
      completions = 0; now = cfg.t0; q = cfg.initial_queue;
      phantom = cfg.initial_queue;
      phantom_served = 0.; offered = 0.; retired_accepted = 0.;
      retired_served = 0.; q_integral = 0.; measured_time = 0.; steps = 0 }
  in
  Array.iter (admit eng) cfg.flows;
  eng

(* A completed flow leaves the ledger's per-flow sums for the running
   ones; its unserved remainder (under the 1e-6 B completion slack)
   stays queued, owned by the phantom from now on. *)
let complete eng f ~t_end =
  eng.retired_accepted <- eng.retired_accepted +. f.v.accepted;
  eng.retired_served <- eng.retired_served +. f.v.served;
  eng.phantom <- eng.phantom +. Float.max 0. (f.v.accepted -. f.v.served);
  let span = t_end -. f.v.t_start in
  eng.goodputs.(f.index) <- (if span <= 0. then 0. else f.v.served /. span);
  eng.fl.(f.index) <- vacant;
  eng.completions <- eng.completions + 1

let advance eng dt =
  let cfg = eng.cfg in
  let live = eng.live and want = eng.want and n = eng.n_live in
  let t = eng.now in
  let t' = t +. dt in
  let qd = eng.q /. cfg.rate in
  (* Offers. *)
  let total_want = ref 0. in
  for k = 0 to n - 1 do
    let f = live.(k) in
    let d = cfg.rm +. qd +. f.spec.jitter t in
    if d < f.v.min_d then f.v.min_d <- d;
    f.v.last_d <- d;
    let w = cwnd f /. d *. dt in
    let w =
      if f.spec.size = infinity then w
      else Float.min w (Float.max 0. (f.spec.size -. f.v.accepted))
    in
    want.(k) <- w;
    total_want := !total_want +. w
  done;
  (* Clip by the free room; drops are proportional and flagged. *)
  let room = Float.max 0. (cfg.buffer +. (cfg.rate *. dt) -. eng.q) in
  let scale =
    if !total_want <= room || !total_want <= 0. then 1. else room /. !total_want
  in
  (* Local accumulators: a float field of [eng] would box on every write. *)
  let q = ref eng.q and offered = ref eng.offered in
  for k = 0 to n - 1 do
    let w = want.(k) in
    if w > 0. then begin
      let f = live.(k) in
      let a = w *. scale in
      offered := !offered +. w;
      f.v.accepted <- f.v.accepted +. a;
      if scale < 1. -. 1e-12 then f.epoch_lost <- true;
      q := !q +. a
    end
  done;
  eng.q <- !q;
  eng.offered <- !offered;
  (* Service, split in proportion to backlog (FIFO approximation). *)
  let s_total = Float.min eng.q (cfg.rate *. dt) in
  if s_total > 0. then begin
    let backlog_total = ref eng.phantom in
    for k = 0 to n - 1 do
      let f = live.(k) in
      backlog_total :=
        !backlog_total +. Float.max 0. (f.v.accepted -. f.v.served)
    done;
    if !backlog_total > 0. then begin
      let share = s_total /. !backlog_total in
      for k = 0 to n - 1 do
        let f = live.(k) in
        let b = Float.max 0. (f.v.accepted -. f.v.served) in
        if b > 0. then begin
          let s = b *. share in
          f.v.served <- f.v.served +. s;
          f.v.epoch_acked <- f.v.epoch_acked +. s;
          if t >= cfg.measure_from then f.v.counted <- f.v.counted +. s
        end
      done;
      let sp = eng.phantom *. share in
      eng.phantom <- eng.phantom -. sp;
      eng.phantom_served <- eng.phantom_served +. sp;
      eng.q <- Float.max 0. (eng.q -. s_total)
    end
  end;
  (* Per-RTT epochs and completions; survivors keep their order. *)
  let kept = ref 0 in
  for k = 0 to n - 1 do
    let f = live.(k) in
    if t' -. f.v.epoch_start >= f.v.last_d then begin
      f.spec.law.Ccac.Model.f_update f.state ~mss:f.spec.mss ~delay:f.v.last_d
        ~min_delay:f.v.min_d ~acked:f.v.epoch_acked ~lost:f.epoch_lost;
      f.v.epoch_start <- t';
      f.v.epoch_acked <- 0.;
      f.epoch_lost <- false
    end;
    if f.spec.size < infinity && f.v.served >= f.spec.size -. 1e-6 then
      complete eng f ~t_end:t'
    else begin
      if !kept < k then live.(!kept) <- f;
      incr kept
    end
  done;
  Array.fill live !kept (n - !kept) vacant;
  eng.n_live <- !kept;
  if t >= cfg.measure_from then begin
    eng.q_integral <- eng.q_integral +. (eng.q *. dt);
    eng.measured_time <- eng.measured_time +. dt
  end;
  eng.now <- t';
  eng.steps <- eng.steps + 1

let horizon eng = eng.cfg.t0 +. eng.cfg.duration
let finished eng = eng.now >= horizon eng -. 1e-9
let step eng = advance eng (Float.min eng.cfg.dt (horizon eng -. eng.now))

let run eng =
  while not (finished eng) do
    step eng
  done;
  eng

let run_config cfg = run (create cfg)

(* Accessors. *)

let now eng = eng.now
let steps eng = eng.steps
let live eng = eng.n_live
let completions eng = eng.completions
let queue_bytes eng = eng.q

let live_flow eng i =
  let f = eng.fl.(i) in
  if f == vacant then invalid_arg "Fluid.Engine: flow has completed";
  f

let flow_cwnd eng i = cwnd (live_flow eng i)

let set_flow_cwnd eng i cwnd =
  let f = live_flow eng i in
  f.spec.law.Ccac.Model.f_warm f.state ~cwnd

let flow_min_delay eng i = (live_flow eng i).v.min_d

let set_flow_min_delay eng i d =
  let f = live_flow eng i in
  f.v.min_d <- d;
  if Float.is_nan f.v.last_d || f.v.last_d = infinity then f.v.last_d <- d

let flow_rate eng i =
  let f = live_flow eng i in
  cwnd f
  /. if f.v.last_d < infinity then f.v.last_d
     else eng.cfg.rm +. (eng.q /. eng.cfg.rate)

let served_bytes eng i = (live_flow eng i).v.served
let counted_bytes eng i = (live_flow eng i).v.counted

let goodput eng i =
  let f = eng.fl.(i) in
  if f == vacant then eng.goodputs.(i)
  else
    let span = eng.now -. f.v.t_start in
    if span <= 0. then 0. else f.v.served /. span

let mean_queue_bytes eng =
  if eng.measured_time <= 0. then 0. else eng.q_integral /. eng.measured_time

let sum_live eng field init =
  let acc = ref init in
  for k = 0 to eng.n_live - 1 do
    acc := !acc +. field eng.live.(k)
  done;
  !acc

let accepted_total eng =
  sum_live eng (fun f -> f.v.accepted) eng.retired_accepted

let served_total eng =
  sum_live eng (fun f -> f.v.served) eng.retired_served +. eng.phantom_served

let offered_total eng = eng.offered

(* |initial queue + accepted - served - final queue|: every accepted
   byte is either still queued or was served.  Dropped bytes never
   enter the ledger.  Exact up to float rounding across the step
   accumulations. *)
let conservation_error eng =
  Float.abs
    (eng.cfg.initial_queue +. accepted_total eng -. served_total eng -. eng.q)
