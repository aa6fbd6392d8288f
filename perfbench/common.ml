(* Pieces every workload shares: the correctness tally, the record one
   pass returns, and small process utilities. *)

(* Every correctness check is one attempted operation; [failed] feeds
   the result's [failed] count, [notes] name what went wrong. *)
type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
}

let checks () = { attempted = 0; failed = 0; notes = [] }

let check c name ok =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    if List.length c.notes < 20 then c.notes <- name :: c.notes
  end

type pass = {
  wall : float;  (* seconds in the timed part *)
  cpu : float;  (* CPU seconds of this process and its waited children *)
  digest : string;  (* of every output the pass checks for equality *)
  notes : string list;  (* what the pass measured, for people *)
  layers : (string * float) list;  (* per-layer metrics this pass measured *)
  remainder : float;  (* seconds the tracing itself cost (traced passes) *)
  trace_json : string option;
}

let now () = float_of_int (Trace.now_ns ()) *. 1e-9

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

(* Wall and CPU seconds of [f ()]. *)
let timed f =
  let c0 = cpu_now () and t0 = now () in
  let r = f () in
  (r, now () -. t0, cpu_now () -. c0)

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let digest_of v = Digest.to_hex (Digest.string (Marshal.to_string v []))

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Run [f] with file descriptor 1 sent to [path]; returns [f]'s result
   and everything written.  Forked children inherit the redirection. *)
let capture_stdout path f =
  flush stdout;
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let saved = Unix.dup Unix.stdout in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let r =
    Fun.protect
      ~finally:(fun () ->
        flush stdout;
        Unix.dup2 saved Unix.stdout;
        Unix.close saved)
      f
  in
  (r, In_channel.with_open_bin path In_channel.input_all)

(* Reconciliation tolerances for a traced pass.  The layer self times
   plus the named tracing remainder must account for the traced wall
   time up to [residual_tolerance] of it: the rest is the benchmark's
   own glue between spans, which must stay small for the attribution to
   mean anything.  No layer's clock-corrected self time may fall below
   [-negative_tolerance] of the wall, which would mean the calibration
   subtracted more clock cost than the layer actually had. *)
let residual_tolerance = 0.05
let negative_tolerance = 0.01

(* Finish a traced pass: reconcile its spans, add the trace.* metrics
   and render the trace.  Every traced pass roots its timed part in one
   span named [bench.pass]; spans named [bench.*] are glue, and
   [bench.untimed] ones are excluded from the timed part; [remote]
   names spans recorded in other processes. *)
let traced_pass ?(remote = fun _ -> false) ?(notes = []) ~wall ~cpu ~digest ~layers
    checks cal t
    (selfs, remainder_ns) =
  (* The timed part: the root span less what it set aside untimed. *)
  let root = Trace.span_ns t "bench.pass" -. Trace.total_ns t "bench.untimed" in
  let is_glue s = String.starts_with ~prefix:"bench." s.Trace.s_name in
  (* Spans run in parallel elsewhere (worker jobs) count for the wall
     time they cover, once, not for the sum of their durations. *)
  let layer_ns =
    List.fold_left
      (fun acc s ->
        if is_glue s || remote s.Trace.s_name then acc else acc +. s.Trace.s_self_ns)
      (Trace.remote_cover t remote) selfs
  in
  let residual = (root -. layer_ns -. remainder_ns) /. root in
  let lowest =
    List.fold_left
      (fun acc s -> if is_glue s then acc else Float.min acc s.Trace.s_self_ns)
      0. selfs
    /. root
  in
  check checks
    (Printf.sprintf "trace reconciles: residual %.4f within %.2f" residual
       residual_tolerance)
    (Float.abs residual <= residual_tolerance);
  check checks
    (Printf.sprintf "trace calibration: lowest self time %.4f of wall" lowest)
    (lowest >= -.negative_tolerance);
  {
    wall;
    cpu;
    digest;
    notes;
    layers =
      ("trace.clock_ns", cal.Trace.empty_ns)
      :: ("trace.residual_frac", residual)
      :: layers;
    remainder = remainder_ns *. 1e-9;
    trace_json = Some (Trace.to_json cal t (selfs, remainder_ns));
  }
