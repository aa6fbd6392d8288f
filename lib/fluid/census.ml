(* Fluid port of the starvation census, run on [Engine].  The
   population is [Sim.Population]'s draw (so a fluid cell under the
   packet cell's key runs the same flows); each flow gets a constant
   jitter uniform in [0, jitter_d] from its own labeled stream and is
   admitted at the first step boundary at or after its arrival.  The
   engine steps only live flows and drops a flow's state when it
   completes, so cost per step and resident state track concurrency,
   not the population. *)

type config = {
  key : string;
  seed : int;
  n : int;
  duration : float;
  arrival_frac : float;  (* arrivals span [0, arrival_frac * duration] *)
  rate : float;
  buffer : float;
  rm : float;
  mss : float;
  jitter_d : float;
  alpha : float;  (* pareto shape for sizes *)
  xm : float;  (* pareto scale, bytes *)
  size_cap : float;
  dt : float;
  law : Ccac.Model.fluid;
}

let config ~key ~seed ~n ~duration ~arrival_frac ~rate ?(buffer = infinity)
    ~rm ?(mss = 1500.) ~jitter_d ~alpha ~xm ~size_cap ?dt law =
  let dt = match dt with Some d -> d | None -> rm /. 4. in
  if n <= 0 || duration <= 0. || rate <= 0. || rm <= 0. || dt <= 0.
     || arrival_frac <= 0. || arrival_frac > 1. || jitter_d < 0.
  then invalid_arg "Fluid.Census.config";
  { key; seed; n; duration; arrival_frac; rate; buffer; rm; mss; jitter_d;
    alpha; xm; size_cap; dt; law }

type result = {
  goodputs : float array;
  completed : int;
  peak_active : int;
  steps : int;
  offered_bytes : float;
  served_bytes : float;
  conservation_error : float;
}

let flows cfg =
  Sim.Population.draw ~seed:cfg.seed ~key:cfg.key ~n:cfg.n
    ~window:(cfg.arrival_frac *. cfg.duration) ~alpha:cfg.alpha ~xm:cfg.xm
    ~size_cap:(int_of_float cfg.size_cap)

let run cfg =
  let draw = flows cfg in
  let jitter_rng =
    Sim.Rng.stream (Sim.Rng.create ~seed:cfg.seed)
      ~label:(cfg.key ^ "/fluid-jitter")
  in
  let eng =
    Engine.create
      (Engine.config ~rate:cfg.rate ~buffer:cfg.buffer ~rm:cfg.rm ~dt:cfg.dt
         ~duration:cfg.duration [])
  in
  let admitted = ref 0 in
  let pending = ref (Sim.Population.next draw) in
  let peak_active = ref 0 in
  while not (Engine.finished eng) do
    while !admitted < cfg.n && fst !pending <= Engine.now eng +. 1e-12 do
      let j = Sim.Rng.uniform jitter_rng ~lo:0. ~hi:cfg.jitter_d in
      Engine.admit eng
        (Engine.flow ~jitter:(fun _ -> j) ~size:(float_of_int (snd !pending))
           ~mss:cfg.mss cfg.law);
      incr admitted;
      pending := Sim.Population.next draw
    done;
    peak_active := max !peak_active (Engine.live eng);
    Engine.step eng
  done;
  { goodputs =
      Array.init cfg.n (fun i ->
          if i < !admitted then Engine.goodput eng i else 0.);
    completed = Engine.completions eng;
    peak_active = !peak_active;
    steps = Engine.steps eng;
    offered_bytes = Engine.offered_total eng;
    served_bytes = Engine.served_total eng;
    conservation_error = Engine.conservation_error eng }
