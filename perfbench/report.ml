(* Result of one benchmark run: named metrics with units, operation
   counts and output checks.  Printed as one human-readable line per
   metric and check, then one JSON object as the last line. *)

type t = {
  mutable metrics : (string * float * string) list;  (* newest first *)
  mutable notes : (string * float * string) list;  (* printed, not in the JSON *)
  mutable attempted : int;
  mutable failed : int;
  mutable checks_failed : string list;
}

(* Runs [f 0], [f 1], ... at least [at_least] times, then again while
   another run of the mean length so far still ends within [seconds] of
   the start. *)
let repeat ~seconds ~at_least f =
  let t0 = Perfbench.Span.now_ns () in
  let rec go acc n =
    let acc = f n :: acc and n = n + 1 in
    let elapsed = float_of_int (Perfbench.Span.now_ns () - t0) *. 1e-9 in
    if n < at_least || elapsed *. float_of_int (n + 1) /. float_of_int n <= seconds
    then go acc n
    else List.rev acc
  in
  go [] 0

(* Sub-seed [i] of a measurement's seed, for its run [i]; sub-seed 0 is
   the seed itself. *)
let sub_seed ~seed i = if i = 0 then seed else Hashtbl.hash (seed, i)

let create () = { metrics = []; notes = []; attempted = 0; failed = 0; checks_failed = [] }

let metric r name ~unit v = r.metrics <- (name, v, unit) :: r.metrics
let note r name ~unit v = r.notes <- (name, v, unit) :: r.notes
let count r name v = metric r name ~unit:"count" (float_of_int v)

(* [ops] operations were attempted, [failed] of them failed their
   check. *)
let ops r ~attempted ~failed =
  r.attempted <- r.attempted + attempted;
  r.failed <- r.failed + failed

(* A failed check always names itself on stdout; [ops] decides what it
   costs in operations. *)
let check r name ok detail =
  if not ok then begin
    r.checks_failed <- name :: r.checks_failed;
    Printf.printf "check failed: %s: %s\n%!" name (Lazy.force detail)
  end;
  ok

let top_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1e6

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print r =
  let metrics = List.rev r.metrics in
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-40s %16.6f %s\n" name v unit)
    (metrics @ List.rev r.notes);
  Printf.printf "%-40s %16.6f %s\n" "ops_failed_frac"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    "ratio";
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v)
             unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.checks_failed = [] && r.failed = 0)
    r.attempted r.failed body
