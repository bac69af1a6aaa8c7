(* Span wrappers around an endpoint's Tfmcc_core.Env.t: every timer
   callback the protocol schedules runs inside a [timer] span and every
   send inside a [send] span.  [before_timer] runs just before the span
   opens (the queue-depth sampler rides here) and [on_send] sees each
   message before it is sent (the codec capture). *)

open Perfbench
open Tfmcc_core

let wrap sp ~timer ~send ?(before_timer = ignore) ?(on_send = ignore)
    (env : Env.t) =
  let in_span f () =
    before_timer ();
    Span.enter sp timer;
    f ();
    Span.exit sp
  in
  {
    env with
    Env.after = (fun ~delay f -> env.Env.after ~delay (in_span f));
    after_unit = (fun ~delay f -> env.Env.after_unit ~delay (in_span f));
    at = (fun ~time f -> env.Env.at ~time (in_span f));
    send =
      (fun ~dest ~flow ~size msg ->
        on_send msg;
        Span.enter sp send;
        env.Env.send ~dest ~flow ~size msg;
        Span.exit sp);
  }

(* Calls [f] inside a span of name index [i]. *)
let span sp i f =
  Span.enter sp i;
  f ();
  Span.exit sp

(* Samples [probe] whenever the workload clock has passed the next
   multiple of [every] — from inside hooks the workload already runs,
   so sampling schedules no events of its own. *)
type 'a sampler = {
  clock : unit -> float;
  every : float;
  probe : float -> 'a;
  mutable next : float;
  mutable samples : 'a list;  (* newest first *)
}

let sampler ~clock ~every probe = { clock; every; probe; next = 0.; samples = [] }

let sample s =
  let now = s.clock () in
  if now >= s.next then begin
    s.samples <- s.probe now :: s.samples;
    s.next <- (Float.of_int (int_of_float (now /. s.every)) +. 1.) *. s.every
  end

let samples s = List.rev s.samples

(* Major heap size.  It does not shrink when a run's data dies, so a
   traced run samples it first thing in its process. *)
let heap_words () = float_of_int (Gc.quick_stat ()).Gc.heap_words

(* Slope of heap words over the workload clock in the second half of a
   run's [(clock, heap_words)] samples. *)
let heap_slope pts =
  let n = List.length pts in
  Summary.slope (List.filteri (fun i _ -> i >= n / 2) pts)

(* Prints where the traced run's host time went: per span name, calls,
   self time and its share of the traced wall time. *)
let print_split sp ~wall_ns =
  Array.iteri
    (fun i name ->
      Printf.printf "split %-28s %10d calls %10.1f ms self %6.2f%%\n" name
        (Span.calls sp i)
        (float_of_int (Span.self_ns sp i) *. 1e-6)
        (100. *. float_of_int (Span.self_ns sp i) /. float_of_int wall_ns))
    (Span.names sp)
