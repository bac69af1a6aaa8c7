(* Real-time runtime tests: timer-heap semantics, loop clock hardening,
   the time-translation-invariance property (ISSUE 7 satellite: shifting
   the epoch by +1e9 s must not change rate decisions), and loopback/UDP
   transport smokes. *)

open Rt

let cfg = Tfmcc_core.Config.default

(* ------------------------------------------------------------------ *)
(* Timer heap                                                          *)
(* ------------------------------------------------------------------ *)

(* The alcotest group is still called "wheel" and keeps the case names
   it had when these cases exercised the hashed timer wheel that
   Timer_heap replaced, so the test ids stay stable across the port. *)

(* Callbacks fire in nondecreasing deadline order; ties break by
   insertion sequence. *)
let test_heap_order () =
  let h = Timer_heap.create () in
  let fired = ref [] in
  let add tag at =
    ignore (Timer_heap.schedule h ~at (fun () -> fired := tag :: !fired))
  in
  add "c" 0.030;
  add "a" 0.010;
  add "tie1" 0.020;
  add "tie2" 0.020;
  add "b" 0.015;
  Alcotest.(check int) "pending" 5 (Timer_heap.pending h);
  let n = Timer_heap.advance h ~now:1.0 () in
  Alcotest.(check int) "fired count" 5 n;
  Alcotest.(check (list string))
    "deadline order, ties by insertion"
    [ "a"; "b"; "tie1"; "tie2"; "c" ]
    (List.rev !fired);
  Alcotest.(check int) "none left" 0 (Timer_heap.pending h)

let test_heap_cancel () =
  let h = Timer_heap.create () in
  let hits = ref 0 in
  let t1 = Timer_heap.schedule h ~at:0.01 (fun () -> incr hits) in
  let t2 = Timer_heap.schedule h ~at:0.02 (fun () -> incr hits) in
  Timer_heap.cancel h t1;
  Timer_heap.cancel h t1 (* idempotent *);
  Alcotest.(check int) "live count after cancel" 1 (Timer_heap.pending h);
  ignore (Timer_heap.advance h ~now:0.05 ());
  Alcotest.(check int) "only t2 fired" 1 !hits;
  Timer_heap.cancel h t2 (* after fire: no-op *);
  Alcotest.(check int) "fired total" 1 (Timer_heap.fired h);
  Alcotest.(check int) "live count not disturbed" 0 (Timer_heap.pending h)

(* Far deadlines (seconds to minutes out) order with near ones; there is
   no horizon to migrate across. *)
let test_heap_far_deadlines () =
  let h = Timer_heap.create () in
  let fired = ref [] in
  let add tag at =
    ignore (Timer_heap.schedule h ~at (fun () -> fired := tag :: !fired))
  in
  add "far" 10.0;
  add "farther" 100.0;
  add "near" 0.5;
  Alcotest.(check (option (float 1e-9))) "next_due is near" (Some 0.5)
    (Timer_heap.next_due h);
  ignore (Timer_heap.advance h ~now:1.0 ());
  Alcotest.(check (option (float 1e-9))) "then far" (Some 10.0)
    (Timer_heap.next_due h);
  ignore (Timer_heap.advance h ~now:50.0 ());
  ignore (Timer_heap.advance h ~now:200.0 ());
  Alcotest.(check (list string)) "all fired in order" [ "near"; "far"; "farther" ]
    (List.rev !fired);
  Alcotest.(check (option (float 1e-9))) "empty" None (Timer_heap.next_due h)

(* A cancelled far entry must not resurface as next_due. *)
let test_heap_cancel_far () =
  let h = Timer_heap.create () in
  let t =
    Timer_heap.schedule h ~at:10.0 (fun () -> Alcotest.fail "cancelled timer fired")
  in
  ignore (Timer_heap.schedule h ~at:20.0 (fun () -> ()));
  Timer_heap.cancel h t;
  Alcotest.(check (option (float 1e-9))) "tombstone skipped" (Some 20.0)
    (Timer_heap.next_due h);
  ignore (Timer_heap.advance h ~now:30.0 ());
  Alcotest.(check int) "one fired" 1 (Timer_heap.fired h)

(* Callbacks scheduling already-due timers: the chain fires within the
   same advance. *)
let test_heap_zero_delay_chain () =
  let h = Timer_heap.create () in
  let depth = ref 0 in
  let rec chain n () =
    depth := n;
    if n < 5 then ignore (Timer_heap.schedule h ~at:0.01 (chain (n + 1)))
  in
  ignore (Timer_heap.schedule h ~at:0.01 (chain 1));
  let n = Timer_heap.advance h ~now:0.01 () in
  Alcotest.(check int) "whole chain fired in one advance" 5 n;
  Alcotest.(check int) "chain depth" 5 !depth

(* An endless zero-delay chain fails loudly instead of hanging. *)
let test_heap_runaway_chain () =
  let h = Timer_heap.create () in
  let rec forever () = ignore (Timer_heap.schedule h ~at:0.01 forever) in
  ignore (Timer_heap.schedule h ~at:0.01 forever);
  Alcotest.check_raises "runaway chain"
    (Failure "Timer_heap.advance: runaway zero-delay timer chain") (fun () ->
      ignore (Timer_heap.advance h ~now:0.01 ()))

(* Deadlines already in the past fire on the next advance. *)
let test_heap_past_deadline () =
  let h = Timer_heap.create () in
  ignore (Timer_heap.advance h ~now:100.0 ());
  let hit = ref false in
  ignore (Timer_heap.schedule h ~at:1.0 (fun () -> hit := true));
  ignore (Timer_heap.advance h ~now:100.0 ());
  Alcotest.(check bool) "past deadline fired" true !hit

let test_heap_nan_deadline_rejected () =
  let h = Timer_heap.create () in
  Alcotest.check_raises "NaN deadline"
    (Invalid_argument "Timer_heap.schedule: NaN deadline") (fun () ->
      ignore (Timer_heap.schedule h ~at:Float.nan (fun () -> ())))

(* Regression: A cancels B, and both are due in the same advance.  B
   must not fire or be counted — neither when B is due later than A
   nor on an exact tie broken by insertion order. *)
let test_heap_cancel_within_advance () =
  let case name ~a ~b =
    let h = Timer_heap.create () in
    let b_fired = ref false in
    let tb = ref None in
    ignore
      (Timer_heap.schedule h ~at:a (fun () ->
           Option.iter (Timer_heap.cancel h) !tb));
    tb := Some (Timer_heap.schedule h ~at:b (fun () -> b_fired := true));
    let n = Timer_heap.advance h ~now:0.011 () in
    Alcotest.(check bool) (name ^ ": B did not fire") false !b_fired;
    Alcotest.(check int) (name ^ ": only A fired") 1 n;
    Alcotest.(check int) (name ^ ": fired total") 1 (Timer_heap.fired h);
    Alcotest.(check int) (name ^ ": nothing pending") 0 (Timer_heap.pending h)
  in
  case "later deadline" ~a:0.0101 ~b:0.0105;
  case "exact tie" ~a:0.01 ~b:0.01

(* Regression: an exception escaping one callback leaves its due
   siblings pending (and counted); the next advance fires them. *)
let test_heap_exception_keeps_siblings () =
  let h = Timer_heap.create () in
  let sibling = ref 0 in
  ignore (Timer_heap.schedule h ~at:0.01 (fun () -> failwith "boom"));
  ignore (Timer_heap.schedule h ~at:0.01 (fun () -> incr sibling));
  ignore (Timer_heap.schedule h ~at:0.012 (fun () -> incr sibling));
  Alcotest.check_raises "exception propagates" (Failure "boom") (fun () ->
      ignore (Timer_heap.advance h ~now:0.02 ()));
  Alcotest.(check int) "siblings not fired yet" 0 !sibling;
  Alcotest.(check int) "siblings still pending" 2 (Timer_heap.pending h);
  Alcotest.(check (option (float 1e-9))) "next_due is the tied sibling"
    (Some 0.01) (Timer_heap.next_due h);
  Alcotest.(check int) "next advance fires both" 2
    (Timer_heap.advance h ~now:0.02 ());
  Alcotest.(check int) "siblings fired" 2 !sibling

(* QCheck axioms over random interleavings of schedule, cancel and
   advance (deadlines on a 10 ms grid, so ties are common).  A timer
   may carry a victim: when it fires it cancels that earlier timer.
   The reference model fires, at each advance, the armed timer with the
   least (deadline, seq) until none is due. *)
type heap_op = Sched of int * int option | Cancel of int | Advance of int

let heap_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun at v -> Sched (at, v)) (int_range 0 40) (opt (int_bound 1000)));
        (2, map (fun i -> Cancel i) (int_bound 1000));
        (2, map (fun d -> Advance d) (int_bound 8));
      ])

let pp_heap_op = function
  | Sched (at, v) ->
      Printf.sprintf "Sched(%d,%s)" at
        (match v with None -> "-" | Some v -> string_of_int v)
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Advance d -> Printf.sprintf "Advance %d" d

let heap_ops_arb =
  QCheck.make ~print:QCheck.Print.(list pp_heap_op)
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 120) heap_op_gen)

let prop_heap_axioms =
  QCheck.Test.make ~name:"timer heap axioms vs reference model" ~count:300
    heap_ops_arb (fun ops ->
      let h = Timer_heap.create () in
      (* Timer [i] has seq [i]: every schedule happens at top level. *)
      let deadline = Hashtbl.create 64 and armed = Hashtbl.create 64 in
      let victim = Hashtbl.create 64 and handle = Hashtbl.create 64 in
      let n = ref 0 and now = ref 0. in
      let log = ref [] in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let check_state () =
        let live = Hashtbl.fold (fun i () acc -> i :: acc) armed [] in
        if Timer_heap.pending h <> List.length live then
          fail "pending %d, model %d" (Timer_heap.pending h) (List.length live);
        let min_due =
          List.fold_left
            (fun acc i ->
              let d = Hashtbl.find deadline i in
              match acc with Some m when m <= d -> acc | _ -> Some d)
            None live
        in
        if Timer_heap.next_due h <> min_due then fail "next_due is not the live minimum"
      in
      let fire_cancel i =
        match Hashtbl.find_opt victim i with
        | Some v -> Hashtbl.remove armed v
        | None -> ()
      in
      List.iter
        (fun op ->
          (match op with
          | Sched (at, v) ->
              let i = !n in
              incr n;
              let at = float_of_int at /. 100. in
              Hashtbl.replace deadline i at;
              Hashtbl.replace armed i ();
              (match v with
              | Some v when i > 0 -> Hashtbl.replace victim i (v mod i)
              | _ -> ());
              let fn () =
                log := i :: !log;
                match Hashtbl.find_opt victim i with
                | Some v -> Timer_heap.cancel h (Hashtbl.find handle v)
                | None -> ()
              in
              Hashtbl.replace handle i (Timer_heap.schedule h ~at fn)
          | Cancel k when !n > 0 ->
              let i = k mod !n in
              Hashtbl.remove armed i;
              Timer_heap.cancel h (Hashtbl.find handle i)
          | Cancel _ -> ()
          | Advance d ->
              now := !now +. (float_of_int d /. 100.);
              let rec expected acc =
                let best =
                  Hashtbl.fold
                    (fun i () best ->
                      let d = Hashtbl.find deadline i in
                      if d > !now then best
                      else
                        match best with
                        | Some (bd, bi) when bd < d || (bd = d && bi < i) -> best
                        | _ -> Some (d, i))
                    armed None
                in
                match best with
                | None -> List.rev acc
                | Some (_, i) ->
                    Hashtbl.remove armed i;
                    fire_cancel i;
                    expected (i :: acc)
              in
              let want = expected [] in
              log := [];
              let fired = Timer_heap.advance h ~now:!now () in
              let got = List.rev !log in
              if got <> want then
                fail "fired [%s], expected [%s]"
                  (String.concat ";" (List.map string_of_int got))
                  (String.concat ";" (List.map string_of_int want));
              if fired <> List.length want then
                fail "advance returned %d, fired %d" fired (List.length want));
          check_state ())
        ops;
      true)

(* Same schedule, same cancels: the rt heap pops in exactly the order of
   the simulator's Netsim.Event_heap. *)
let prop_heap_matches_event_heap =
  QCheck.Test.make ~name:"timer heap pop order = Netsim.Event_heap's" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 200) (pair (int_bound 50) bool))
    (fun sched ->
      let h = Timer_heap.create () and eh = Netsim.Event_heap.create () in
      let got = ref [] and want = ref [] in
      List.iteri
        (fun i (at, cancelled) ->
          let at = float_of_int at /. 10. in
          let t = Timer_heap.schedule h ~at (fun () -> got := i :: !got) in
          let e = Netsim.Event_heap.add eh ~time:at (fun () -> want := i :: !want) in
          if cancelled then begin
            Timer_heap.cancel h t;
            Netsim.Event_heap.cancel eh e
          end)
        sched;
      ignore (Timer_heap.advance h ~now:infinity ());
      let rec drain () =
        match Netsim.Event_heap.pop eh with
        | Some (_, f) ->
            f ();
            drain ()
        | None -> ()
      in
      drain ();
      !got = !want)

(* ------------------------------------------------------------------ *)
(* Turbo loop                                                          *)
(* ------------------------------------------------------------------ *)

let test_loop_turbo_until () =
  let loop = Loop.create () in
  let times = ref [] in
  ignore (Loop.after loop ~delay:0.5 (fun () -> times := Loop.now loop :: !times));
  ignore (Loop.at loop ~time:1.25 (fun () -> times := Loop.now loop :: !times));
  ignore (Loop.at loop ~time:99.0 (fun () -> Alcotest.fail "beyond until"));
  Loop.run ~until:2.0 loop;
  Alcotest.(check (list (float 1e-9))) "virtual clock jumped to deadlines"
    [ 0.5; 1.25 ] (List.rev !times);
  Alcotest.(check (float 1e-9)) "clock lands exactly on until" 2.0 (Loop.now loop);
  Alcotest.(check int) "one still pending" 1 (Loop.timers_pending loop)

(* Non-finite / negative delays are clamped to zero and counted instead
   of corrupting the timer heap. *)
let test_loop_bad_delay () =
  let loop = Loop.create () in
  let hits = ref 0 in
  ignore (Loop.after loop ~delay:Float.nan (fun () -> incr hits));
  ignore (Loop.after loop ~delay:(-3.) (fun () -> incr hits));
  ignore (Loop.after loop ~delay:Float.infinity (fun () -> incr hits));
  Loop.run loop;
  Alcotest.(check int) "all clamped to immediate" 3 !hits;
  Alcotest.(check int) "anomalies counted" 3 (Loop.clock_anomalies loop)

(* Without an exn handler an escaping exception tears down [run], but
   the crashed timer's same-deadline sibling stays pending and fires on
   the next run. *)
let test_loop_exception_keeps_siblings () =
  let loop = Loop.create () in
  let sibling = ref false in
  ignore (Loop.after loop ~delay:0.1 (fun () -> failwith "boom"));
  ignore (Loop.after loop ~delay:0.1 (fun () -> sibling := true));
  Alcotest.check_raises "exception propagates" (Failure "boom") (fun () ->
      Loop.run loop);
  Alcotest.(check int) "sibling still pending" 1 (Loop.timers_pending loop);
  Loop.run loop;
  Alcotest.(check bool) "sibling fired on the next run" true !sibling;
  Alcotest.(check int) "both counted" 2 (Loop.timers_fired loop)

(* ------------------------------------------------------------------ *)
(* Clock hardening (ISSUE 7 satellite: non-monotonic now, late timers)  *)
(* ------------------------------------------------------------------ *)

let test_monotonic_clock_clamps () =
  let samples = ref [ 1.0; 2.0; 1.5; 3.0 ] in
  let raw () =
    match !samples with
    | [] -> Alcotest.fail "raw clock exhausted"
    | x :: rest ->
        samples := rest;
        x
  in
  let backsteps = ref [] in
  let clock =
    Tfmcc_core.Env.monotonic_clock ~on_anomaly:(fun d -> backsteps := d :: !backsteps) raw
  in
  let out = List.init 4 (fun _ -> clock ()) in
  Alcotest.(check (list (float 1e-9))) "backward sample clamped to high-water"
    [ 1.0; 2.0; 2.0; 3.0 ] out;
  Alcotest.(check (list (float 1e-9))) "one anomaly, magnitude of the step" [ 0.5 ]
    !backsteps

let test_draw_clamped () =
  let anomalies = ref 0 in
  let on_anomaly () = incr anomalies in
  let draw t_max =
    Tfmcc_core.Feedback_timer.draw_clamped (Stats.Rng.create 5)
      ~on_anomaly ~bias:cfg.Tfmcc_core.Config.bias ~t_max ~delta:0.5
      ~n_estimate:10_000 ~ratio:0.8
  in
  List.iter
    (fun bad ->
      let t = draw bad in
      Alcotest.(check bool)
        (Printf.sprintf "finite non-negative for t_max=%h" bad)
        true
        (Float.is_finite t && t >= 0.))
    [ Float.nan; 0.; -1.; Float.neg_infinity ];
  Alcotest.(check int) "each bad t_max counted" 4 !anomalies;
  (* On valid input it is draw itself, RNG consumption included. *)
  let a = draw 2.0 in
  let b =
    Tfmcc_core.Feedback_timer.draw (Stats.Rng.create 5)
      ~bias:cfg.Tfmcc_core.Config.bias ~t_max:2.0 ~delta:0.5
      ~n_estimate:10_000 ~ratio:0.8
  in
  Alcotest.(check (float 0.)) "identical to draw on valid input" b a;
  Alcotest.(check int) "no anomaly on valid input" 4 !anomalies

let test_round_duration_clamped () =
  let anomalies = ref 0 in
  let on_anomaly () = incr anomalies in
  List.iter
    (fun (max_rtt, rate) ->
      let t =
        Tfmcc_core.Feedback_timer.round_duration_clamped ~on_anomaly ~cfg ~max_rtt ~rate
      in
      Alcotest.(check bool) "finite positive" true (Float.is_finite t && t > 0.))
    [ (Float.nan, 1000.); (0., 1000.); (0.1, Float.nan); (0.1, 0.); (-1., -1.) ];
  Alcotest.(check bool) "anomalies counted" true (!anomalies >= 5);
  let clean = ref 0 in
  let t =
    Tfmcc_core.Feedback_timer.round_duration_clamped
      ~on_anomaly:(fun () -> incr clean)
      ~cfg ~max_rtt:0.1 ~rate:10_000.
  in
  Alcotest.(check (float 0.)) "matches round_duration on valid input"
    (Tfmcc_core.Feedback_timer.round_duration ~cfg ~max_rtt:0.1 ~rate:10_000.)
    t;
  Alcotest.(check int) "no anomaly on valid input" 0 !clean

let test_rtt_estimator_nonmonotonic_now () =
  let e = Tfmcc_core.Rtt_estimator.create ~cfg ~clock_offset:0. () in
  Tfmcc_core.Rtt_estimator.on_echo e ~local_now:10.0 ~rx_ts:9.9 ~echo_delay:0.02
    ~pkt_ts:9.95 ~is_clr:true;
  Alcotest.(check int) "no anomaly yet" 0 (Tfmcc_core.Rtt_estimator.clock_anomalies e);
  (* The local clock steps backwards: the sample is clamped to the
     high-water mark, counted, and the estimate stays finite. *)
  Tfmcc_core.Rtt_estimator.on_data e ~local_now:5.0 ~pkt_ts:9.96;
  Alcotest.(check bool) "backstep counted" true
    (Tfmcc_core.Rtt_estimator.clock_anomalies e >= 1);
  let est = Tfmcc_core.Rtt_estimator.estimate e in
  Alcotest.(check bool) "estimate still sane" true (Float.is_finite est && est > 0.)

let test_rtt_estimator_bad_echo () =
  let e = Tfmcc_core.Rtt_estimator.create ~cfg ~clock_offset:0. () in
  (* Raw sample local_now - rx_ts - echo_delay is negative: clamped to
     the 1 ms floor, not discarded (the loop is proven closed). *)
  Tfmcc_core.Rtt_estimator.on_echo e ~local_now:1.0 ~rx_ts:2.0 ~echo_delay:0.
    ~pkt_ts:0.99 ~is_clr:true;
  Alcotest.(check int) "rejection counted" 1 (Tfmcc_core.Rtt_estimator.rejections e);
  Alcotest.(check bool) "measurement still recorded" true
    (Tfmcc_core.Rtt_estimator.has_measurement e);
  let est = Tfmcc_core.Rtt_estimator.estimate e in
  Alcotest.(check bool) "estimate finite positive" true (Float.is_finite est && est > 0.);
  (* NaN raw sample: dropped entirely. *)
  let e2 = Tfmcc_core.Rtt_estimator.create ~cfg ~clock_offset:0. () in
  Tfmcc_core.Rtt_estimator.on_echo e2 ~local_now:1.0 ~rx_ts:0.9 ~echo_delay:Float.nan
    ~pkt_ts:0.95 ~is_clr:true;
  Alcotest.(check int) "NaN rejected" 1 (Tfmcc_core.Rtt_estimator.rejections e2);
  Alcotest.(check bool) "NaN sample not a measurement" false
    (Tfmcc_core.Rtt_estimator.has_measurement e2);
  Alcotest.(check (float 1e-9)) "estimate untouched"
    cfg.Tfmcc_core.Config.rtt_initial
    (Tfmcc_core.Rtt_estimator.estimate e2)

(* ------------------------------------------------------------------ *)
(* Time-translation invariance (the satellite property)                 *)
(* ------------------------------------------------------------------ *)

let harness_at ~seed ~epoch =
  Harness.run
    { Harness.default with epoch; seed; sessions = 3; duration = 6. }

(* Shifting every absolute time by +1e9 s must leave the protocol's
   decisions untouched: packet/report/frame/timer counts identical,
   rates equal to double-precision quantization of the RTT terms
   (~1.2e-7 s resolution at 1e9). *)
let prop_time_translation =
  QCheck.Test.make ~name:"epoch shift +1e9 s leaves rate decisions unchanged"
    ~count:6
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let a = harness_at ~seed ~epoch:0. in
      let b = harness_at ~seed ~epoch:1e9 in
      if a.Harness.frames_sent <> b.Harness.frames_sent then
        QCheck.Test.fail_reportf "frames sent: %d vs %d" a.Harness.frames_sent
          b.Harness.frames_sent;
      if a.Harness.timers_fired <> b.Harness.timers_fired then
        QCheck.Test.fail_reportf "timers fired: %d vs %d" a.Harness.timers_fired
          b.Harness.timers_fired;
      List.iter2
        (fun (x : Harness.session_stat) (y : Harness.session_stat) ->
          if x.packets <> y.packets then
            QCheck.Test.fail_reportf "session %d packets: %d vs %d" x.session
              x.packets y.packets;
          if x.reports <> y.reports then
            QCheck.Test.fail_reportf "session %d reports: %d vs %d" x.session
              x.reports y.reports;
          if x.starved <> y.starved then
            QCheck.Test.fail_reportf "session %d starved flag differs" x.session;
          let rel =
            if x.rate = 0. then abs_float y.rate
            else abs_float (x.rate -. y.rate) /. abs_float x.rate
          in
          if rel > 1e-5 then
            QCheck.Test.fail_reportf "session %d rate: %.6f vs %.6f (rel %.3e)"
              x.session x.rate y.rate rel)
        a.Harness.stats b.Harness.stats;
      true)

(* Same config, same seed, run twice: bit-identical outcomes (the turbo
   loop is deterministic end to end). *)
let test_turbo_determinism () =
  let a = harness_at ~seed:42 ~epoch:0. in
  let b = harness_at ~seed:42 ~epoch:0. in
  Alcotest.(check int) "frames" a.Harness.frames_sent b.Harness.frames_sent;
  List.iter2
    (fun (x : Harness.session_stat) (y : Harness.session_stat) ->
      Alcotest.(check int) "packets" x.packets y.packets;
      Alcotest.(check (float 0.)) "rate bit-identical" x.rate y.rate;
      Alcotest.(check (float 0.)) "rtt bit-identical" x.rtt y.rtt)
    a.Harness.stats b.Harness.stats

(* ------------------------------------------------------------------ *)
(* Loopback transport                                                  *)
(* ------------------------------------------------------------------ *)

let test_loopback_convergence () =
  let r = Harness.run Harness.default in
  Alcotest.(check int) "no decode errors" 0 r.Harness.decode_errors;
  Alcotest.(check int) "no encode drops" 0 r.Harness.encode_drops;
  Alcotest.(check int) "no clock anomalies in turbo" 0 r.Harness.clock_anomalies;
  Alcotest.(check bool) "frames flowed" true (r.Harness.frames_delivered > 1000);
  Alcotest.(check bool) "losses occurred" true (r.Harness.frames_lost > 0);
  Alcotest.(check (float 1e-9)) "ran to the end" 8.0 r.Harness.end_time;
  List.iter
    (fun (s : Harness.session_stat) ->
      Alcotest.(check bool)
        (Printf.sprintf "session %d converged" s.session)
        true
        (Harness.converged s ~cfg);
      Alcotest.(check bool)
        (Printf.sprintf "session %d measured RTT" s.session)
        true s.rtt_measured)
    r.Harness.stats

(* The warmup field must hold the loss dice: a lossless-warmup run and
   a loss-from-t0 run at the same seed diverge only after warmup. *)
let test_loopback_warmup_holds_loss () =
  let run warmup =
    Harness.run
      {
        Harness.default with
        sessions = 1;
        duration = 1.5;
        impair = Net.impairment ~loss:0.5 ~delay:0.01 ~warmup ();
      }
  in
  let held = run 2.0 in
  let unleashed = run 0.0 in
  Alcotest.(check int) "no losses while the dice are held" 0 held.Harness.frames_lost;
  Alcotest.(check bool) "losses from t0 otherwise" true
    (unleashed.Harness.frames_lost > 0)

(* ------------------------------------------------------------------ *)
(* Realtime mode                                                       *)
(* ------------------------------------------------------------------ *)

let test_realtime_loopback_smoke () =
  let r =
    Harness.run
      { Harness.default with sessions = 2; duration = 1.0; mode = Loop.Realtime }
  in
  Alcotest.(check bool) "took about a wall second" true (r.Harness.wall_s >= 0.8);
  Alcotest.(check bool) "frames flowed" true (r.Harness.frames_delivered > 0);
  Alcotest.(check int) "no decode errors" 0 r.Harness.decode_errors

(* A callback that blocks the loop makes the next timer tardy beyond
   the tolerance: counted as a clock anomaly, not dropped. *)
let test_realtime_late_timer_counted () =
  let loop = Loop.create ~mode:Loop.Realtime ~late_tolerance_s:0.02 () in
  let fired = ref 0 in
  ignore (Loop.after loop ~delay:0.005 (fun () -> Unix.sleepf 0.08));
  ignore (Loop.after loop ~delay:0.01 (fun () -> incr fired));
  Loop.run loop;
  Alcotest.(check int) "late timer still fired" 1 !fired;
  Alcotest.(check bool) "tardiness counted" true (Loop.clock_anomalies loop >= 1)

let test_udp_smoke () =
  match
    Harness.run
      {
        Harness.default with
        sessions = 1;
        duration = 0.8;
        mode = Loop.Realtime;
        transport = Harness.Udp_sockets;
      }
  with
  | exception Unix.Unix_error (e, fn, _) ->
      (* Sandboxes without loopback sockets: report, don't fail. *)
      Printf.printf "udp smoke skipped: %s in %s\n%!" (Unix.error_message e) fn
  | r ->
      Alcotest.(check bool) "frames crossed the kernel" true
        (r.Harness.frames_delivered > 0);
      Alcotest.(check int) "no decode errors" 0 r.Harness.decode_errors;
      Alcotest.(check int) "no send errors" 0 r.Harness.encode_drops

(* Turbo mode must refuse kernel sockets: the virtual clock outruns
   any real fd. *)
let test_udp_rejects_turbo () =
  let loop = Loop.create ~mode:Loop.Turbo () in
  Alcotest.check_raises "turbo UDP rejected"
    (Invalid_argument "Udp.create: needs a realtime loop (virtual time outruns sockets)") (fun () ->
      ignore (Udp.create loop ()))

let () =
  Alcotest.run "rt"
    [
      ( "wheel",
        [
          Alcotest.test_case "deadline order with ties" `Quick test_heap_order;
          Alcotest.test_case "cancel" `Quick test_heap_cancel;
          Alcotest.test_case "overflow migration" `Quick test_heap_far_deadlines;
          Alcotest.test_case "cancel in overflow" `Quick test_heap_cancel_far;
          Alcotest.test_case "zero-delay chain" `Quick test_heap_zero_delay_chain;
          Alcotest.test_case "runaway chain fails loudly" `Quick
            test_heap_runaway_chain;
          Alcotest.test_case "past deadline" `Quick test_heap_past_deadline;
          Alcotest.test_case "NaN deadline rejected" `Quick
            test_heap_nan_deadline_rejected;
          Alcotest.test_case "cancelled within the same advance" `Quick
            test_heap_cancel_within_advance;
          Alcotest.test_case "exception keeps siblings pending" `Quick
            test_heap_exception_keeps_siblings;
          QCheck_alcotest.to_alcotest prop_heap_axioms;
          QCheck_alcotest.to_alcotest prop_heap_matches_event_heap;
        ] );
      ( "loop",
        [
          Alcotest.test_case "turbo run until" `Quick test_loop_turbo_until;
          Alcotest.test_case "bad delays clamped" `Quick test_loop_bad_delay;
          Alcotest.test_case "exception keeps siblings pending" `Quick
            test_loop_exception_keeps_siblings;
        ] );
      ( "clock hardening",
        [
          Alcotest.test_case "monotonic clock clamps" `Quick test_monotonic_clock_clamps;
          Alcotest.test_case "feedback draw clamped" `Quick test_draw_clamped;
          Alcotest.test_case "round duration clamped" `Quick
            test_round_duration_clamped;
          Alcotest.test_case "rtt estimator non-monotonic now" `Quick
            test_rtt_estimator_nonmonotonic_now;
          Alcotest.test_case "rtt estimator bad echo samples" `Quick
            test_rtt_estimator_bad_echo;
        ] );
      ( "time translation",
        [
          QCheck_alcotest.to_alcotest prop_time_translation;
          Alcotest.test_case "turbo determinism" `Quick test_turbo_determinism;
        ] );
      ( "loopback",
        [
          Alcotest.test_case "convergence smoke" `Quick test_loopback_convergence;
          Alcotest.test_case "warmup holds loss" `Quick test_loopback_warmup_holds_loss;
        ] );
      ( "realtime",
        [
          Alcotest.test_case "loopback smoke" `Quick test_realtime_loopback_smoke;
          Alcotest.test_case "late timer counted" `Quick
            test_realtime_late_timer_counted;
          Alcotest.test_case "udp smoke" `Quick test_udp_smoke;
          Alcotest.test_case "udp rejects turbo" `Quick test_udp_rejects_turbo;
        ] );
    ]
