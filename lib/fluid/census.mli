(** Fluid port of the starvation census, run on {!Engine}.  The
    population is {!Sim.Population}'s draw (Poisson arrivals over
    [arrival_frac * duration], Pareto sizes in whole bytes), so a fluid
    run under a packet run's key and seed sees the same flows; each flow
    also gets a constant jitter uniform in [0, jitter_d] from the
    labeled stream [key ^ "/fluid-jitter"].  Flows are admitted at the
    first step boundary at or after their arrival and advanced by one
    shared fluid law on one bottleneck.  The engine steps only live
    flows and drops a flow's law state when it completes, so cost per
    step and resident state track peak concurrency, not the
    population. *)

type config = private {
  key : string;
  seed : int;
  n : int;
  duration : float;
  arrival_frac : float;
  rate : float;
  buffer : float;
  rm : float;
  mss : float;
  jitter_d : float;
  alpha : float;
  xm : float;
  size_cap : float;
  dt : float;
  law : Ccac.Model.fluid;
}

val config :
  key:string ->
  seed:int ->
  n:int ->
  duration:float ->
  arrival_frac:float ->
  rate:float ->
  ?buffer:float ->
  rm:float ->
  ?mss:float ->
  jitter_d:float ->
  alpha:float ->
  xm:float ->
  size_cap:float ->
  ?dt:float ->
  Ccac.Model.fluid ->
  config
(** [dt] defaults to rm/4. *)

type result = {
  goodputs : float array;
      (** per flow, served bytes over its own lifetime; 0. = starved *)
  completed : int;
  peak_active : int;
  steps : int;
  offered_bytes : float;
  served_bytes : float;
  conservation_error : float;  (** the engine's {!Engine.conservation_error} *)
}

val flows : config -> Sim.Population.draw
(** The population {!run} admits. *)

val run : config -> result
