(* sim-star-4k: the paper's scale axis.  A Scenario.star of 4000
   receivers on 1 Mbit/s tails with per-tail delays in [10, 60] ms
   drawn from the seed, losing packets only in drop-tail queues (with
   Bernoulli tail loss the worst tail pins the rate near the floor and
   the run does almost no work), observed through the null sink. *)

open Perfbench
module Sc = Experiments.Scenario

let receivers = 4000
let link_bps = 1e6
let target_pkts = 1_000_000

(* One 0.1-simsec step [k] of the simulation; false once the receivers
   have been delivered [target_pkts] data packets (or 60 simsec pass).
   A fixed amount of delivered work, not a fixed simulated duration: how
   fast slow start ramps up depends on the seed, so a fixed duration
   would let the seed, not the code, set the amount of work timed. *)
let step sc k =
  Sc.run_until sc (0.1 *. float_of_int k);
  Netsim.Monitor.packets sc.Sc.monitor ~flow:Sc.tfmcc_flow < target_pkts && k < 600

let sample_every = 0.1

let delays ~seed =
  let st = Random.State.make [| seed |] in
  Array.init receivers (fun _ -> 0.010 +. Random.State.float st 0.050)

(* Everything the simulation computes that the checks compare: a traced
   and an untraced run of one seed must agree on all of it. *)
type stats = {
  events : int;
  delivered : int;
  rate : float;
  packets_sent : int;
  reports : int;
  clr_changes : int;
}

let stats_of engine monitor session =
  let snd = Tfmcc_core.Session.sender session in
  {
    events = Netsim.Engine.events_processed engine;
    delivered = Netsim.Monitor.packets monitor ~flow:Sc.tfmcc_flow;
    rate = Tfmcc_core.Sender.rate_bytes_per_s snd;
    packets_sent = Tfmcc_core.Sender.packets_sent snd;
    reports = Tfmcc_core.Sender.reports_received snd;
    clr_changes = Tfmcc_core.Sender.clr_changes snd;
  }

let show s =
  Printf.sprintf "events=%d delivered=%d rate=%.17g sent=%d reports=%d clr_changes=%d"
    s.events s.delivered s.rate s.packets_sent s.reports s.clr_changes

type run = {
  setup_s : float;  (* at the reference speed *)
  wall_s : float;  (* host seconds, kernel samples left out *)
  scaled_s : float;  (* wall_s at the reference speed *)
  stats : stats;
  minor_words : float;
  major_collections : int;
  peak_mb : float;  (* top of the heap so far in the process *)
}

(* Set-up: Scenario.star, session started at 0. *)
let build ~seed ~obs =
  let st = Sc.star ~seed ~obs ~link_bps ~link_delays:(delays ~seed) () in
  Tfmcc_core.Session.start st.Sc.s_session ~at:0.;
  st

(* Set-up time at the reference speed, and what it built. *)
let timed_build ~seed ~obs =
  let k0 = Calib.sample () in
  let t0 = Span.now_ns () in
  let st = build ~seed ~obs in
  let ns = Span.now_ns () - t0 in
  (float_of_int (Calib.scale ns ~k0 ~k1:(Calib.sample ())) *. 1e-9, st)

let time_build ~seed = fst (timed_build ~seed ~obs:Obs.Sink.null)

(* One untraced run; [~calibrate:false] for runs compared with the
   traced one, which samples no kernel either. *)
let untraced ?calibrate ~seed ~obs () =
  Gc.compact ();
  let setup_s, st = timed_build ~seed ~obs in
  let mw = Gc.minor_words () and maj = (Gc.quick_stat ()).Gc.major_collections in
  let scaled_ns, raw_ns = Calib.steps ?calibrate (step st.Sc.s_sc) in
  {
    setup_s;
    wall_s = float_of_int raw_ns *. 1e-9;
    scaled_s = float_of_int scaled_ns *. 1e-9;
    stats = stats_of st.Sc.s_sc.Sc.engine st.Sc.s_sc.Sc.monitor st.Sc.s_session;
    minor_words = Gc.minor_words () -. mw;
    major_collections = (Gc.quick_stat ()).Gc.major_collections - maj;
    peak_mb = Report.top_heap_mb ();
  }

let names =
  [|
    "netsim.remainder";
    "netsim.topology.inject";
    "netsim.monitor.tap";
    "tfmcc.sender.timer";
    "tfmcc.sender.report";
    "tfmcc.receiver.deliver";
    "tfmcc.receiver.timer";
  |]

let remainder = 0
and inject = 1
and tap = 2
and sender_timer = 3
and sender_report = 4
and rx_deliver = 5
and rx_timer = 6

type traced = {
  sp : Span.t;
  t_stats : stats;
  wall_ns : int;
  links : Netsim.Link.t list;
  session : Tfmcc_core.Session.t;
  samples : (float * float * float) list;  (* clock, pending events, heap words *)
}

(* The same star built by hand from Netsim/Netsim_env/Tfmcc_core, in
   Scenario.star's construction order, with every layer entry point
   wrapped in a span. *)
let traced ~seed =
  Gc.compact ();
  let sp = Span.create names in
  let sc = Sc.base ~seed ~obs:Obs.Sink.null () in
  let topo = sc.Sc.topo and engine = sc.Sc.engine in
  let add () = Netsim.Topology.add_node topo in
  let sender = add () in
  let hub = add () in
  let up, down =
    Netsim.Topology.connect topo ~queue_capacity:50 ~bandwidth_bps:(10. *. link_bps)
      ~delay_s:0.005 sender hub
  in
  let d = delays ~seed in
  let tails =
    Array.init receivers (fun i ->
        let rx = add () in
        let ab, ba =
          Netsim.Topology.connect topo ~queue_capacity:50 ~bandwidth_bps:link_bps
            ~delay_s:d.(i) hub rx
        in
        (rx, ab, ba))
  in
  let clock = Netsim.Engine.time_cell engine in
  let sampler =
    Trace_env.sampler
      ~clock:(fun () -> clock.Netsim.Event_heap.cell_time)
      ~every:sample_every
      (fun now ->
        ( now,
          float_of_int (Netsim.Engine.pending_events engine),
          Trace_env.heap_words () ))
  in
  let env node ~timer ~before_timer =
    Trace_env.wrap sp ~timer ~send:inject ~before_timer
      (Netsim_env.env topo ~session:Sc.tfmcc_flow node)
  in
  let session =
    Tfmcc_core.Session.create
      ~sender_env:
        (env sender ~timer:sender_timer ~before_timer:(fun () ->
             Trace_env.sample sampler))
      ~session:Sc.tfmcc_flow
      ~receiver_envs:
        (Array.to_list
           (Array.map (fun (rx, _, _) -> env rx ~timer:rx_timer ~before_timer:ignore) tails))
      ()
  in
  let snd = Tfmcc_core.Session.sender session in
  Netsim.Node.attach sender (fun p ->
      match p.Netsim.Packet.payload with
      | Netsim_env.Report r ->
          Trace_env.span sp sender_report (fun () -> Tfmcc_core.Sender.deliver_report snd r)
      | _ -> ());
  List.iteri
    (fun i r ->
      let rx, _, _ = tails.(i) in
      Netsim.Node.attach rx (fun p ->
          match p.Netsim.Packet.payload with
          | Netsim_env.Data dat ->
              Trace_env.sample sampler;
              Span.enter sp rx_deliver;
              Tfmcc_core.Receiver.deliver_data r ~size:p.Netsim.Packet.size dat;
              Span.exit sp
          | _ -> ()))
    (Tfmcc_core.Session.receivers session);
  Array.iter
    (fun (rx, _, _) ->
      Netsim.Node.attach rx (fun p ->
          if p.Netsim.Packet.flow = Sc.tfmcc_flow then
            Trace_env.span sp tap (fun () -> Netsim.Monitor.tap sc.Sc.monitor p)))
    tails;
  Tfmcc_core.Session.start session ~at:0.;
  let t0 = Span.now_ns () in
  Span.enter_at sp remainder ~ns:t0;
  ignore (Calib.steps ~calibrate:false (step sc) : int * int);
  let t1 = Span.now_ns () in
  Span.exit_at sp ~ns:t1;
  {
    sp;
    t_stats = stats_of engine sc.Sc.monitor session;
    wall_ns = t1 - t0;
    links =
      up :: down
      :: List.concat_map (fun (_, ab, ba) -> [ ab; ba ]) (Array.to_list tails);
    session;
    samples = Trace_env.samples sampler;
  }

let check_stats r ~what s =
  Report.check r what
    (s.events > 0 && s.delivered >= target_pkts
    && s.delivered <= s.packets_sent * receivers
    && Float.is_finite s.rate && s.rate > 0. && s.reports > 0)
    (lazy (show s))

let measure r ~seed ~seconds =
  (* Extra set-ups, so setup_s is a median over more than the few runs
     that fit in [seconds]. *)
  let setups = List.init 8 (fun _ -> time_build ~seed) in
  (* The first run faults the heap in, which later runs reuse; it is
     not timed, and the first timed run repeats its sub-seed. *)
  let t0 = Span.now_ns () in
  let warm = untraced ~seed ~obs:Obs.Sink.null () in
  let left = seconds -. (float_of_int (Span.now_ns () - t0) *. 1e-9) in
  let runs =
    Report.repeat ~seconds:left ~at_least:3 (fun i ->
        untraced ~seed:(Report.sub_seed ~seed i) ~obs:Obs.Sink.null ())
  in
  let failed =
    List.length
      (List.filter
         (fun run -> not (check_stats r ~what:"sim stats plausible" run.stats))
         (warm :: runs))
  in
  let same =
    Report.check r "repeat runs identical"
      (compare (List.hd runs).stats warm.stats = 0)
      (lazy (show warm.stats ^ " vs " ^ show (List.hd runs).stats))
  in
  let attempted = 1 + List.length runs in
  Report.ops r ~attempted ~failed:(min attempted (if same then failed else failed + 1));
  (* Other tenants of a shared host slow this one by up to 2x, in
     phases from under a second to minutes.  Each step's time is scaled
     to the reference speed of Calib's kernel, sampled around it.  How
     much a run costs also depends on its seed, by up to 15% between
     two seeds, so a measurement is the median over the sub-seeds of
     its seed. *)
  let med f = Summary.median (List.map f runs) in
  Report.metric r "wall_s" ~unit:"s" (med (fun x -> x.scaled_s));
  Report.note r "raw_wall_s" ~unit:"s" (med (fun x -> x.wall_s));
  Report.metric r "setup_s" ~unit:"s"
    (Summary.median (setups @ List.map (fun x -> x.setup_s) runs));
  Report.metric r "ns_per_pkt" ~unit:"ns"
    (med (fun x -> x.scaled_s *. 1e9 /. float_of_int x.stats.delivered));
  (* Read after the first run, on a fresh heap: the heap never shrinks,
     and later runs, which start with the free space the earlier ones
     left, let the garbage grow further before a major cycle. *)
  Report.metric r "peak_heap_mb" ~unit:"MB" warm.peak_mb

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

let trace r ~seed =
  let tr = traced ~seed in
  (* The null sink against an enabled one, in alternation so that a
     drift in the host's speed falls on both; obs.sink_overhead_frac is
     the median over the pairs. *)
  let pairs =
    List.init 3 (fun _ ->
        let base = untraced ~calibrate:false ~seed ~obs:Obs.Sink.null () in
        (base, untraced ~calibrate:false ~seed ~obs:(Obs.Sink.create ()) ()))
  in
  let base, obs_run = List.hd pairs in
  let sp = tr.sp in
  let ok =
    check_stats r ~what:"sim stats plausible" base.stats
    && Report.check r "traced = untraced simulated statistics"
         (compare tr.t_stats base.stats = 0)
         (lazy (show base.stats ^ " vs traced " ^ show tr.t_stats))
    && Report.check r "enabled sink = null sink simulated statistics"
         (List.for_all
            (fun (b, o) -> compare b.stats base.stats = 0 && compare o.stats base.stats = 0)
            pairs)
         (lazy (show base.stats ^ " vs " ^ show obs_run.stats))
    && Report.check r "span self times sum to traced wall"
         (Span.self_sum_ns sp = tr.wall_ns && Span.depth sp = 0)
         (lazy (Printf.sprintf "%d vs %d" (Span.self_sum_ns sp) tr.wall_ns))
  in
  Report.ops r ~attempted:1 ~failed:(if ok then 0 else 1);
  Trace_env.print_split sp ~wall_ns:tr.wall_ns;
  let per_call i = float_of_int (Span.self_ns sp i) /. float_of_int (max 1 (Span.calls sp i)) in
  let events = tr.t_stats.events in
  let pending = List.map (fun (_, p, _) -> p) tr.samples in
  Report.count r "netsim.engine.events" events;
  Report.metric r "netsim.engine.pending_p50" ~unit:"count" (Summary.median pending);
  Report.metric r "netsim.engine.pending_max" ~unit:"count" (Summary.percentile pending 1.);
  Report.metric r "netsim.remainder.ns_per_event" ~unit:"ns"
    (float_of_int (Span.self_ns sp remainder) /. float_of_int events);
  Report.count r "netsim.link.tx_pkts" (sum Netsim.Link.packets_sent tr.links);
  Report.count r "netsim.link.drops_queue" (sum Netsim.Link.drops_queue tr.links);
  Report.metric r "netsim.topology.inject_ns" ~unit:"ns" (per_call inject);
  Report.metric r "netsim.topology.copies_per_inject" ~unit:"count"
    (float_of_int (sum Netsim.Link.packets_offered tr.links)
    /. float_of_int (Span.calls sp inject));
  Report.metric r "netsim.monitor.tap_ns" ~unit:"ns" (per_call tap);
  let heap = List.map (fun (t, _, h) -> (t, h)) tr.samples in
  let slope = Trace_env.heap_slope heap in
  Report.metric r "netsim.monitor.heap_words_per_simsec" ~unit:"words/s" slope;
  Report.metric r "gc.heap_words_per_rx_per_s" ~unit:"words/s"
    (slope /. float_of_int receivers);
  let rxs = Tfmcc_core.Session.receivers tr.session in
  let sent = sum Tfmcc_core.Receiver.reports_sent rxs in
  let suppressed = sum Tfmcc_core.Receiver.timers_suppressed rxs in
  Report.metric r "tfmcc.receiver.deliver_ns" ~unit:"ns" (per_call rx_deliver);
  Report.count r "tfmcc.receiver.deliver_calls" (Span.calls sp rx_deliver);
  Report.metric r "tfmcc.receiver.timer_ns" ~unit:"ns" (per_call rx_timer);
  Report.count r "tfmcc.receiver.reports_sent" sent;
  Report.metric r "tfmcc.receiver.suppress_ratio" ~unit:"ratio"
    (float_of_int suppressed /. float_of_int (max 1 (suppressed + sent)));
  Report.metric r "tfmcc.sender.timer_ns" ~unit:"ns" (per_call sender_timer);
  Report.metric r "tfmcc.sender.report_ns" ~unit:"ns" (per_call sender_report);
  Report.count r "tfmcc.sender.packets_sent" tr.t_stats.packets_sent;
  Report.count r "tfmcc.sender.reports_received" tr.t_stats.reports;
  Report.metric r "gc.minor_words_per_pkt" ~unit:"words"
    (base.minor_words /. float_of_int base.stats.delivered);
  Report.count r "gc.major_collections" base.major_collections;
  Report.metric r "obs.sink_overhead_frac" ~unit:"ratio"
    (Summary.median (List.map (fun (b, o) -> (o.wall_s /. b.wall_s) -. 1.) pairs));
  Report.metric r "trace.overhead_frac" ~unit:"ratio"
    ((float_of_int tr.wall_ns *. 1e-9 /. base.wall_s) -. 1.)
