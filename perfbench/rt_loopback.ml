(* rt-fanout-1k: the real-time runtime on the loopback fabric in turbo
   mode, with the default impairment (2% loss, 25 ms delay, 5 ms
   jitter).  One session of 1000 receivers stresses the per-frame path
   (Net decodes every multicast frame once per destination) and the
   wheel with a timer per receiver. *)

open Perfbench
open Tfmcc_core
module H = Rt.Harness

let sessions = 1
let receivers = 1000

(* One session's slow start takes off anywhere from 10 to over 80
   loop-s depending on the seed (the sample-size effect on the CLR's
   loss estimate), so a fixed duration would let the seed set the work
   timed from 0.2M to 1.5M frames.  A frame target fixes the work; a
   stalled session still runs, for more loop-seconds.  Harness.run has
   no frame-count stop, hence the unsupervised sessions timed here; the
   traced run times Harness.run against them over [harness_loop_s]. *)
let frames_target = 1_000_000
let harness_loop_s = 40.

let sample_every = 0.1

(* Loop-seconds after which a frame-target run gives up (a check then
   fails). *)
let max_loop_s = 2000

(* As [tfmcc-sim loopback] runs it: the CLI hands the protocol a 0.15 s
   initial RTT (the 0.5 s default makes slow start crawl on this path). *)
let config ~seed =
  {
    H.default with
    H.cfg = { Config.default with Config.rtt_initial = 0.15 };
    sessions;
    receivers;
    duration = harness_loop_s;
    seed;
  }

let seconds_since t0 = float_of_int (Span.now_ns () - t0) *. 1e-9

(* ---- the unsupervised sessions: Harness.run's sessions built directly
   from Loop/Net/Session, in the harness's construction order, without
   the supervision guards and probes.  Traced, every layer entry point
   runs in a span. *)

let names =
  [|
    "rt.remainder";
    "rt.net.send";
    "tfmcc.sender.timer";
    "tfmcc.sender.report";
    "tfmcc.receiver.deliver";
    "tfmcc.receiver.timer";
  |]

let remainder = 0
and net_send = 1
and sender_timer = 2
and sender_report = 3
and rx_deliver = 4
and rx_timer = 5

type twin = {
  epoch : float;
  loop : Rt.Loop.t;
  net : Rt.Net.t;
  built : Session.t list;
  build_s : float;
  sp : Span.t option;
  sampler : (float * float * float) Trace_env.sampler;
      (* clock, pending timers, heap words *)
  captured : Wire.msg list ref;  (* newest first, at most [capture_cap] *)
}

let capture_cap = 100_000

let build_twin ~seed ~traced =
  let t0 = Span.now_ns () in
  let c = config ~seed in
  let loop =
    Rt.Loop.create ~mode:c.H.mode ~epoch:c.H.epoch ~obs:(Obs.Sink.create ()) ~seed ()
  in
  let net = Rt.Net.create loop ~impair:c.H.impair () in
  let sp = if traced then Some (Span.create names) else None in
  let sampler =
    Trace_env.sampler
      ~clock:(fun () -> Rt.Loop.now loop)
      ~every:sample_every
      (fun now ->
        (now, float_of_int (Rt.Loop.timers_pending loop), Trace_env.heap_words ()))
  in
  let captured = ref [] and n_captured = ref 0 in
  let capture msg =
    if !n_captured < capture_cap then begin
      captured := msg :: !captured;
      incr n_captured
    end
  in
  let wrap ~timer ~before_timer env =
    match sp with
    | None -> env
    | Some sp -> Trace_env.wrap sp ~timer ~send:net_send ~before_timer ~on_send:capture env
  in
  let build i =
    let sid = i + 1 in
    let sep = Rt.Net.endpoint net ~session:sid in
    let rx = List.init receivers (fun _ -> Rt.Net.endpoint net ~session:sid) in
    let s =
      Session.create
        ~sender_env:
          (wrap ~timer:sender_timer
             ~before_timer:(fun () -> Trace_env.sample sampler)
             (Rt.Net.env sep))
        ~cfg:c.H.cfg ~session:sid
        ~receiver_envs:
          (List.map (fun e -> wrap ~timer:rx_timer ~before_timer:ignore (Rt.Net.env e)) rx)
        ()
    in
    let snd = Session.sender s in
    (match sp with
    | None ->
        Rt.Net.set_deliver sep (fun ~size:_ msg -> Sender.deliver snd msg);
        List.iter2
          (fun ep r -> Rt.Net.set_deliver ep (Receiver.deliver r))
          rx (Session.receivers s)
    | Some sp ->
        Rt.Net.set_deliver sep (fun ~size:_ msg ->
            Trace_env.span sp sender_report (fun () -> Sender.deliver snd msg));
        List.iter2
          (fun ep r ->
            Rt.Net.set_deliver ep (fun ~size msg ->
                Trace_env.sample sampler;
                Trace_env.span sp rx_deliver (fun () -> Receiver.deliver r ~size msg)))
          rx (Session.receivers s));
    Session.start s ~at:(c.H.epoch +. (0.01 *. float_of_int (i mod 128)));
    s
  in
  let built = List.init sessions build in
  { epoch = c.H.epoch; loop; net; built; build_s = seconds_since t0; sp; sampler; captured }

type stop = Loop_s of float | Frames of int

(* Runs the loop to a frame target, checked every loop-second, or for a
   number of loop-seconds.  Returns its host time in monotonic
   nanoseconds, in wall-clock seconds (how Harness.run times its loop),
   and, for a [~calibrate] run to a frame target, its host time at
   Calib's reference speed, scaled loop-second by loop-second (else 0).
   Kernel samples are in none of these.  Traced runs, and the runs
   compared with them, are not calibrated. *)
let run_twin ?(calibrate = false) tw stop =
  let g0 = Unix.gettimeofday () in
  let t0 = Span.now_ns () in
  Option.iter (fun sp -> Span.enter_at sp remainder ~ns:t0) tw.sp;
  let step n k =
    Rt.Loop.run ~until:(tw.epoch +. float_of_int k) tw.loop;
    Rt.Net.frames_delivered tw.net < n && k < max_loop_s
  in
  let scaled_ns, raw_ns =
    match stop with
    | Loop_s d ->
        Rt.Loop.run ~until:(tw.epoch +. d) tw.loop;
        (0, None)
    | Frames n ->
        let scaled, raw = Calib.steps ~calibrate (step n) in
        (scaled, if calibrate then Some raw else None)
  in
  let t1 = Span.now_ns () in
  let gtod_s = Unix.gettimeofday () -. g0 in
  Option.iter (fun sp -> Span.exit_at sp ~ns:t1) tw.sp;
  (Option.value raw_ns ~default:(t1 - t0), gtod_s, scaled_ns)

(* Harness.session_stat of a session, as Harness.run computes it. *)
let stat_of sid s =
  let snd = Session.sender s in
  let rxs = Session.receivers s in
  let mean f = List.fold_left (fun a r -> a +. f r) 0. rxs /. float_of_int (List.length rxs) in
  {
    H.session = sid;
    rate = Sender.rate_bytes_per_s snd;
    packets = Sender.packets_sent snd;
    reports = Sender.reports_received snd;
    starved = Sender.is_starved snd;
    loss_rate = mean Receiver.loss_event_rate;
    rtt = mean Receiver.rtt;
    rtt_measured = List.for_all Receiver.has_rtt_measurement rxs;
    failovers = Sender.clr_failovers snd;
    starvations = Sender.feedback_starvations snd;
  }

(* ---- one run: the unsupervised sessions timed, or Harness.run *)

type run = {
  wall_s : float;
  scaled_s : float;  (* wall_s at the reference speed; 0 for Harness.run *)
  frames : int;
  key : string;  (* every counter two runs of one seed must agree on *)
  summary : string;
  transport_ok : bool;  (* no decode errors, no loop exceptions *)
  not_ok : (int * string) list;  (* sessions whose outcome is not Ok *)
  stats : H.session_stat list;  (* of the sessions that are Ok *)
  supervision : int * int * int;  (* crashes, restarts, stalls *)
  minor_words : float;
  major_collections : int;
  peak_mb : float;  (* top of the heap so far in the process *)
}

let with_gc f =
  Gc.compact ();
  let mw = Gc.minor_words () and maj = (Gc.quick_stat ()).Gc.major_collections in
  let x = f () in
  ( x,
    Gc.minor_words () -. mw,
    (Gc.quick_stat ()).Gc.major_collections - maj,
    Report.top_heap_mb () )

let harness_run ~seed =
  let x, minor_words, major_collections, peak_mb = with_gc (fun () -> H.run (config ~seed)) in
  {
    wall_s = x.H.wall_s;
    scaled_s = 0.;
    frames = x.H.frames_delivered;
    key =
      Marshal.to_string
        ( x.H.stats,
          List.map (fun (sid, o) -> (sid, Par.outcome_label o)) x.H.outcomes,
          (x.H.end_time, x.H.timers_fired, x.H.clock_anomalies),
          (x.H.frames_sent, x.H.frames_delivered, x.H.frames_lost, x.H.frames_blocked),
          (x.H.encode_drops, x.H.decode_errors, x.H.loop_exceptions),
          (x.H.crashes, x.H.restarts, x.H.stalls, x.H.sessions_failed) )
        [];
    summary =
      Printf.sprintf
        "timers=%d sent=%d delivered=%d lost=%d decode_errors=%d loop_exceptions=%d \
         crashes=%d"
        x.H.timers_fired x.H.frames_sent x.H.frames_delivered x.H.frames_lost
        x.H.decode_errors x.H.loop_exceptions x.H.crashes;
    transport_ok = x.H.decode_errors = 0 && x.H.loop_exceptions = 0;
    not_ok =
      List.filter_map
        (fun (sid, o) ->
          match o with Par.Ok _ -> None | o -> Some (sid, Par.outcome_label o))
        x.H.outcomes;
    stats = List.filter_map (function _, Par.Ok s -> Some s | _ -> None) x.H.outcomes;
    supervision = (x.H.crashes, x.H.restarts, x.H.stalls);
    minor_words;
    major_collections;
    peak_mb;
  }

let twin_run ~seed =
  let tw = build_twin ~seed ~traced:false in
  let (wall_ns, _, scaled_ns), minor_words, major_collections, peak_mb =
    with_gc (fun () -> run_twin ~calibrate:true tw (Frames frames_target))
  in
  let net = tw.net in
  let stats = List.mapi (fun i s -> stat_of (i + 1) s) tw.built in
  let counters =
    ( Rt.Net.frames_sent net,
      Rt.Net.frames_delivered net,
      Rt.Net.frames_lost net,
      Rt.Net.decode_errors net,
      Rt.Net.encode_drops net,
      Rt.Loop.timers_fired tw.loop,
      Rt.Loop.now tw.loop )
  in
  let sent, delivered, lost, dec, _, timers, now = counters in
  {
    wall_s = float_of_int wall_ns *. 1e-9;
    scaled_s = float_of_int scaled_ns *. 1e-9;
    frames = delivered;
    key = Marshal.to_string (counters, stats) [];
    summary =
      Printf.sprintf "loop_s=%g timers=%d sent=%d delivered=%d lost=%d decode_errors=%d"
        now timers sent delivered lost dec;
    transport_ok = dec = 0 && delivered >= frames_target;
    not_ok = [];
    stats;
    supervision = (0, 0, 0);
    minor_words;
    major_collections;
    peak_mb;
  }

(* Set-up time at the reference speed: building the sessions. *)
let setup_s ~seed =
  Gc.compact ();
  let k0 = Calib.sample () in
  let ns = int_of_float ((build_twin ~seed ~traced:false).build_s *. 1e9) in
  float_of_int (Calib.scale ns ~k0 ~k1:(Calib.sample ())) *. 1e-9

let unconverged stats =
  let cfg = (config ~seed:0).H.cfg in
  List.length (List.filter (fun s -> not (H.converged s ~cfg)) stats)

(* Checks that every session is [Harness.converged]; returns how many
   are not. *)
let check_converged r stats =
  let converged = List.length stats - unconverged stats in
  Printf.printf "converged sessions: %d of %d\n" converged sessions;
  ignore
    (Report.check r "rt sessions converged" (converged = sessions)
       (lazy (Printf.sprintf "%d of %d converged" converged sessions)));
  sessions - converged

(* Checks one run, and that it agrees with [same], a run of the same
   seed; returns its failed sessions: those whose outcome is not Ok, or
   every session when a run-level check fails. *)
let check_run r ?same run =
  let run_ok =
    (match same with
     | None -> true
     | Some first ->
         Report.check r "rt repeat runs identical" (run.key = first.key)
           (lazy (first.summary ^ " vs " ^ run.summary)))
    && Report.check r "rt zero decode errors and loop exceptions, target reached"
         run.transport_ok (lazy run.summary)
  in
  ignore
    (Report.check r "rt sessions Ok" (run.not_ok = [])
       (lazy
          (String.concat ", "
             (List.map (fun (sid, label) -> Printf.sprintf "#%d %s" sid label) run.not_ok))));
  if run_ok then List.length run.not_ok else sessions

let measure r ~seed ~seconds =
  let setups = List.init 10 (fun _ -> setup_s ~seed) in
  (* As on sim-star-4k: an untimed first run faults the heap in, the
     first timed run repeats its seed, and a measurement is the median
     over the sub-seeds of its seed of the runs' times, scaled loop-
     second by loop-second to Calib's reference speed. *)
  let t0 = Span.now_ns () in
  let warm = twin_run ~seed in
  let left = seconds -. seconds_since t0 in
  let runs =
    Report.repeat ~seconds:left ~at_least:3 (fun i ->
        twin_run ~seed:(Report.sub_seed ~seed i))
  in
  let failed =
    List.fold_left
      (fun a (same, run) -> a + max (check_run r ?same run) (check_converged r run.stats))
      0
      ((None, warm) :: List.mapi (fun i run -> ((if i = 0 then Some warm else None), run)) runs)
  in
  Report.ops r ~attempted:((1 + List.length runs) * sessions) ~failed;
  let med f = Summary.median (List.map f runs) in
  Report.metric r "wall_s" ~unit:"s" (med (fun run -> run.scaled_s));
  Report.note r "raw_wall_s" ~unit:"s" (med (fun run -> run.wall_s));
  Report.metric r "setup_s" ~unit:"s" (Summary.median setups);
  Report.metric r "ns_per_pkt" ~unit:"ns"
    (med (fun run -> run.scaled_s *. 1e9 /. float_of_int run.frames));
  (* As on sim-star-4k: read after the first run, on a fresh heap. *)
  Report.metric r "peak_heap_mb" ~unit:"MB" warm.peak_mb

(* Times Wire encode and decode over the captured messages: the codec
   cost per frame, measured outside Rt.Net.  Median of several passes. *)
let codec_replay r msgs =
  let msgs = Array.of_list msgs in
  let n = Array.length msgs in
  let buf = Bytes.create (max Wire.encoded_data_size Wire.encoded_report_size) in
  let frames =
    Array.map
      (function Wire.Data d -> Wire.encode_data d | Wire.Report x -> Wire.encode_report x)
      msgs
  in
  let decoded_ok =
    Array.for_all (fun f -> match Wire.decode f with Ok _ -> true | Error _ -> false) frames
  in
  ignore
    (Report.check r "captured frames decode" (n > 0 && decoded_ok)
       (lazy (Printf.sprintf "%d frames" n)));
  let pass f =
    let t0 = Span.now_ns () in
    f ();
    float_of_int (Span.now_ns () - t0) /. float_of_int (max 1 n)
  in
  let encode () =
    Array.iter
      (fun m ->
        ignore
          (match m with
           | Wire.Data d -> Wire.encode_data_into buf d
           | Wire.Report x -> Wire.encode_report_into buf x
            : int))
      msgs
  in
  let decode () =
    Array.iter (fun f -> ignore (Wire.decode f : (Wire.msg, string) result)) frames
  in
  let median_of f = Summary.median (List.init 7 (fun _ -> pass f)) in
  Report.metric r "tfmcc.wire.encode_ns" ~unit:"ns" (median_of encode);
  Report.metric r "tfmcc.wire.decode_ns" ~unit:"ns" (median_of decode)

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

(* Harness.run and unsupervised runs timed in alternation for
   rt.harness.overhead_ns_per_frame. *)
let harness_pairs = 3

let trace r ~seed =
  (* First in the process, so its heap samples start from a fresh heap. *)
  let tr = build_twin ~seed ~traced:true in
  let tr_ns, _, _ = run_twin tr (Frames frames_target) in
  let plain = build_twin ~seed ~traced:false in
  let (plain_ns, _, _), plain_words, plain_majors, _ =
    with_gc (fun () -> run_twin plain (Frames frames_target))
  in
  (* Harness.run against the same sessions unsupervised, over the same
     loop-seconds and timed the same way (wall clock).  The two alternate,
     so that a drift in the host's speed falls on both; the overhead is
     the median over the pairs. *)
  let pair () =
    let h = harness_run ~seed in
    let tw = build_twin ~seed ~traced:false in
    let (_, gtod, _), _, _, _ = with_gc (fun () -> run_twin tw (Loop_s harness_loop_s)) in
    (h, Rt.Net.frames_delivered tw.net, (h.wall_s -. gtod) *. 1e9 /. float_of_int (max 1 h.frames))
  in
  let pairs = List.init harness_pairs (fun _ -> pair ()) in
  let h, _, _ = List.hd pairs in
  let sp = Option.get tr.sp in
  let frames tw = Rt.Net.frames_delivered tw.net in
  (* Convergence of the traced sessions, which ran as the timed runs do. *)
  let failed =
    List.fold_left (fun a (run, _, _) -> max a (check_run r ~same:h run)) 0 pairs
  in
  let failed =
    max failed (check_converged r (List.mapi (fun i s -> stat_of (i + 1) s) tr.built))
  in
  let ok =
    Report.check r "unsupervised sessions deliver the harness's frames"
      (List.for_all (fun (_, twin_frames, _) -> twin_frames = h.frames) pairs
      && frames tr = frames plain)
      (lazy
         (Printf.sprintf "harness %d, unsupervised %s; traced %d vs untraced %d" h.frames
            (String.concat "/"
               (List.map (fun (_, n, _) -> string_of_int n) pairs))
            (frames tr) (frames plain)))
    && Report.check r "span self times sum to traced wall"
         (Span.self_sum_ns sp = tr_ns && Span.depth sp = 0)
         (lazy (Printf.sprintf "%d vs %d" (Span.self_sum_ns sp) tr_ns))
  in
  Report.ops r ~attempted:sessions ~failed:(if ok then failed else sessions);
  Trace_env.print_split sp ~wall_ns:tr_ns;
  codec_replay r (List.rev !(tr.captured));
  let per_call i = float_of_int (Span.self_ns sp i) /. float_of_int (max 1 (Span.calls sp i)) in
  let net = tr.net in
  Report.metric r "rt.net.send_ns" ~unit:"ns" (per_call net_send);
  Report.metric r "rt.net.frames_per_send" ~unit:"count"
    (float_of_int (Rt.Net.frames_sent net) /. float_of_int (Span.calls sp net_send));
  Report.count r "rt.net.frames_delivered" (Rt.Net.frames_delivered net);
  Report.count r "rt.net.frames_lost" (Rt.Net.frames_lost net);
  let samples = Trace_env.samples tr.sampler in
  let timers = Rt.Loop.timers_fired tr.loop in
  let pending = List.map (fun (_, p, _) -> p) samples in
  Report.count r "rt.loop.timers_fired" timers;
  Report.metric r "rt.loop.pending_p50" ~unit:"count" (Summary.median pending);
  Report.metric r "rt.loop.pending_max" ~unit:"count" (Summary.percentile pending 1.);
  Report.metric r "rt.remainder.ns_per_timer" ~unit:"ns"
    (float_of_int (Span.self_ns sp remainder) /. float_of_int timers);
  let slope = Trace_env.heap_slope (List.map (fun (t, _, w) -> (t, w)) samples) in
  Report.metric r "rt.loop.heap_words_per_s" ~unit:"words/s" slope;
  Report.metric r "gc.heap_words_per_rx_per_s" ~unit:"words/s"
    (slope /. float_of_int (sessions * receivers));
  Report.metric r "rt.harness.overhead_ns_per_frame" ~unit:"ns"
    (Summary.median (List.map (fun (_, _, ns) -> ns) pairs));
  let crashes, restarts, stalls = h.supervision in
  Report.count r "rt.harness.crashes" crashes;
  Report.count r "rt.harness.restarts" restarts;
  Report.count r "rt.harness.stalls" stalls;
  Report.count r "rt.harness.unconverged" (unconverged h.stats);
  let rxs = List.concat_map Session.receivers tr.built in
  let snds = List.map Session.sender tr.built in
  let sent = sum Receiver.reports_sent rxs in
  let suppressed = sum Receiver.timers_suppressed rxs in
  Report.metric r "tfmcc.receiver.deliver_ns" ~unit:"ns" (per_call rx_deliver);
  Report.count r "tfmcc.receiver.deliver_calls" (Span.calls sp rx_deliver);
  Report.metric r "tfmcc.receiver.timer_ns" ~unit:"ns" (per_call rx_timer);
  Report.count r "tfmcc.receiver.reports_sent" sent;
  Report.metric r "tfmcc.receiver.suppress_ratio" ~unit:"ratio"
    (float_of_int suppressed /. float_of_int (max 1 (suppressed + sent)));
  Report.metric r "tfmcc.sender.timer_ns" ~unit:"ns" (per_call sender_timer);
  Report.metric r "tfmcc.sender.report_ns" ~unit:"ns" (per_call sender_report);
  Report.count r "tfmcc.sender.packets_sent" (sum Sender.packets_sent snds);
  Report.count r "tfmcc.sender.reports_received" (sum Sender.reports_received snds);
  Report.metric r "gc.minor_words_per_pkt" ~unit:"words"
    (plain_words /. float_of_int (frames plain));
  Report.count r "gc.major_collections" plain_majors;
  Report.metric r "trace.overhead_frac" ~unit:"ratio"
    ((float_of_int tr_ns /. float_of_int plain_ns) -. 1.)
