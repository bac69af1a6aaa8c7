(* sweep-quick: what users run to regenerate the figures — the golden
   digest of every registered experiment at Quick scale, two domains.
   Many small scenarios (<= 32 receivers) with shallow heaps, TCP cross
   traffic, enabled sinks, the Monte-Carlo feedback model and Par
   scheduling; no large-N fan-out.

   A measurement runs the sweep once on a Par pool of two domains, as
   Golden.compute ~jobs:2 does, untimed except for creating the pool,
   which is the set-up; its digests are checked against the timed runs:
   the same digest tasks in registry order on one domain, as
   Golden.compute ~jobs:1 runs them.  Two domains timed together are
   too noisy for the benchmark's bounds (while one collects its minor
   heap the other waits, and which task ends last varies), so the
   run's time is serial; par.busy_frac and par.tail_s of the traced run
   time the two-domain sweep. *)

open Perfbench
module G = Experiments.Golden
module Reg = Experiments.Registry

let jobs = 2
let mode = Experiments.Scenario.Quick
let golden_file = "test/golden/digests.txt"

(* What one task saw: its digest, the data packets the experiment's
   monitors recorded, when and on which domain its Registry.run ran,
   and how long that took at Calib's reference speed. *)
type task = {
  id : string;
  digest : string;
  packets : int;
  start_ns : int;
  end_ns : int;
  domain : int;
  minor_words : float;
  scaled_ns : int;
}

(* Golden.digest_experiment over a wrapped Registry.run closure: the
   wrapper reads the experiment's private sink (installed by
   digest_experiment around the run) for its packet count and times
   the call.  The digest covers id, series and sink, none of which the
   wrapper touches.  Only [~calibrate] tasks sample Calib's kernel; the
   others' scaled time is their raw time. *)
let task ~seed ~calibrate (e : Reg.experiment) () =
  let packets = ref 0 and start_ns = ref 0 and end_ns = ref 0 and mw = ref 0. in
  let scaled_ns = ref 0 in
  let run ~mode ~seed =
    let w0 = Gc.minor_words () in
    let sample () = if calibrate then Calib.sample () else Calib.ref_ns in
    let k0 = sample () in
    start_ns := Span.now_ns ();
    let series = e.Reg.run ~mode ~seed in
    end_ns := Span.now_ns ();
    scaled_ns := Calib.scale (!end_ns - !start_ns) ~k0 ~k1:(sample ());
    mw := Gc.minor_words () -. w0;
    (match Experiments.Scenario.ambient_obs () with
    | Some sink ->
        packets :=
          Obs.Metrics.sum_counters sink.Obs.Sink.metrics "netsim_monitor_packets_total"
    | None -> ());
    series
  in
  (* An experiment that raises fails its digest check instead of ending
     the whole sweep. *)
  let digest =
    try G.digest_experiment { e with Reg.run } ~mode ~seed
    with exn -> "raised " ^ Printexc.to_string exn
  in
  {
    id = e.Reg.id;
    digest;
    packets = !packets;
    start_ns = !start_ns;
    end_ns = !end_ns;
    domain = (Domain.self () :> int);
    minor_words = !mw;
    scaled_ns = !scaled_ns;
  }

type run = {
  setup_s : float;  (* at the reference speed *)
  start_ns : int;
  wall_ns : int;  (* host time, kernel samples included *)
  tasks : task list;
  peak_mb : float;  (* top of the heap so far in the process *)
}

(* Creates a pool; returns it and how long that took at the reference
   speed. *)
let timed_pool () =
  let k0 = Calib.sample () in
  let t0 = Span.now_ns () in
  let pool = Par.Pool.create ~jobs () in
  let ns = Span.now_ns () - t0 in
  (pool, float_of_int (Calib.scale ns ~k0 ~k1:(Calib.sample ())) *. 1e-9)

let sweep ~seed =
  Gc.compact ();
  let pool, setup_s = timed_pool () in
  let t1 = Span.now_ns () in
  let tasks = Par.Pool.map pool (List.map (task ~seed ~calibrate:false) Reg.all) in
  let t2 = Span.now_ns () in
  Par.Pool.shutdown pool;
  {
    setup_s;
    start_ns = t1;
    wall_ns = t2 - t1;
    tasks;
    peak_mb = Report.top_heap_mb ();
  }

(* The same tasks one after the other on the calling domain. *)
let serial_sweep ~seed =
  Gc.compact ();
  let t1 = Span.now_ns () in
  let tasks = List.map (fun e -> task ~seed ~calibrate:true e ()) Reg.all in
  let t2 = Span.now_ns () in
  { setup_s = 0.; start_ns = t1; wall_ns = t2 - t1; tasks; peak_mb = Report.top_heap_mb () }

(* Extra pool creations, so setup_s is a median over several set-ups
   even when the run has room for few sweeps. *)
let pool_setups n =
  List.init n (fun _ ->
      let pool, s = timed_pool () in
      Par.Pool.shutdown pool;
      s)

let pairs run = List.map (fun t -> (t.id, t.digest)) run.tasks

(* The digests of a serial recomputation through the public
   Golden.compute. *)
let serial_digests r ~seed =
  try G.compute ~jobs:1 ~mode ~seed ()
  with exn ->
    ignore
      (Report.check r "serial recomputation" false
         (lazy ("raised " ^ Printexc.to_string exn)));
    []

(* Checks every run's digests against [serial] and, at the golden seed,
   against the checked-in digests (read-only).  Each experiment of each
   run is one operation; a digest that disagrees fails it. *)
let check_runs r ~seed ~serial runs =
  let golden =
    if seed <> 42 then None
    else if Sys.file_exists golden_file then
      Some (G.parse_file_format (In_channel.with_open_bin golden_file In_channel.input_all))
    else None
  in
  if seed = 42 then
    ignore
      (Report.check r "golden file readable" (golden <> None)
         (lazy (golden_file ^ " not found")));
  let bad_ids run =
    List.filter_map
      (fun (id, d) ->
        let ok_serial = List.assoc_opt id serial = Some d in
        let ok_golden =
          match golden with None -> true | Some g -> List.assoc_opt id g = Some d
        in
        ignore
          (Report.check r ("digest = serial: " ^ id) ok_serial
             (lazy (Printf.sprintf "got %s, serial %s" d
                      (Option.value ~default:"missing" (List.assoc_opt id serial)))));
        ignore
          (Report.check r ("digest = golden: " ^ id) ok_golden
             (lazy (Printf.sprintf "got %s" d)));
        if ok_serial && ok_golden then None else Some id)
      (pairs run)
  in
  let failed = List.concat_map bad_ids runs in
  let complete =
    Report.check r "every experiment digested once"
      (List.for_all (fun run -> List.map fst (pairs run) = List.map fst serial) runs)
      (lazy "id lists differ")
  in
  let attempted = List.length runs * List.length Reg.all in
  Report.ops r ~attempted ~failed:(if complete then List.length failed else attempted)

let packets run = List.fold_left (fun a t -> a + t.packets) 0 run.tasks

let measure r ~seed ~seconds =
  let setups = pool_setups 20 in
  (* The two-domain sweep runs first, untimed: it also faults in the
     heap the serial runs reuse. *)
  let t0 = Span.now_ns () in
  let par = sweep ~seed in
  let left = seconds -. (float_of_int (Span.now_ns () - t0) *. 1e-9) in
  let runs = Report.repeat ~seconds:left ~at_least:1 (fun _ -> serial_sweep ~seed) in
  check_runs r ~seed ~serial:(pairs (List.hd runs)) (par :: runs);
  (* A serial run's wall time at Calib's reference speed: scaled by the
     ratio of its tasks' scaled to raw times. *)
  let raw run = float_of_int run.wall_ns *. 1e-9 in
  let wall run =
    let sum f = float_of_int (List.fold_left (fun a t -> a + f t) 0 run.tasks) in
    raw run *. sum (fun t -> t.scaled_ns) /. sum (fun t -> t.end_ns - t.start_ns)
  in
  let med f = Summary.median (List.map f runs) in
  Report.metric r "wall_s" ~unit:"s" (med wall);
  Report.note r "raw_wall_s" ~unit:"s" (med raw);
  Report.note r "two_domain_raw_wall_s" ~unit:"s" (raw par);
  Report.metric r "setup_s" ~unit:"s" (Summary.median (par.setup_s :: setups));
  Report.metric r "ns_per_pkt" ~unit:"ns"
    (med (fun run -> wall run *. 1e9 /. float_of_int (packets run)));
  (* Read after the first serial run, as the later ones vary in number. *)
  Report.metric r "peak_heap_mb" ~unit:"MB" (List.hd runs).peak_mb

(* The per-task timing is all the tracing this workload has, and it is on
   in every sweep (four clock reads per experiment), so there is no
   untraced twin and no trace.overhead_frac here.  The first sweep is
   the repeat check's reference. *)
let trace r ~seed =
  let base = sweep ~seed in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let run = sweep ~seed in
  let majors = (Gc.quick_stat ()).Gc.major_collections - major0 in
  check_runs r ~seed ~serial:(serial_digests r ~seed) [ base; run ];
  let task_ms = List.map (fun t -> float_of_int (t.end_ns - t.start_ns) *. 1e-6) run.tasks in
  let wall_s = float_of_int run.wall_ns *. 1e-9 in
  Report.metric r "experiments.sweep.task_ms_p50" ~unit:"ms" (Summary.median task_ms);
  Report.metric r "experiments.sweep.task_ms_max" ~unit:"ms" (Summary.percentile task_ms 1.);
  Report.metric r "par.busy_frac" ~unit:"ratio"
    (List.fold_left ( +. ) 0. task_ms *. 1e-3 /. (wall_s *. float_of_int jobs));
  (* Each worker domain goes idle after its last task; the first to do
     so starts the tail the other spends alone. *)
  let domains = List.sort_uniq compare (List.map (fun t -> t.domain) run.tasks) in
  let last_end d =
    List.fold_left (fun a t -> if t.domain = d then max a t.end_ns else a) 0 run.tasks
  in
  let first_idle = List.fold_left (fun a d -> min a (last_end d)) max_int domains in
  let tail_s =
    if List.length domains < jobs then wall_s
    else float_of_int (run.start_ns + run.wall_ns - first_idle) *. 1e-9
  in
  Report.metric r "par.tail_s" ~unit:"s" tail_s;
  Report.metric r "gc.minor_words_per_pkt" ~unit:"words"
    (List.fold_left (fun a t -> a +. t.minor_words) 0. run.tasks
    /. float_of_int (packets run));
  Report.count r "gc.major_collections" majors
