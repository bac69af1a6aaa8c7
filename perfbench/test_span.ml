(* Self-time arithmetic of the span recorder, on explicit timestamps. *)

open Perfbench

let a = 0 and b = 1 and c = 2 and d = 3

(* A 0..100 ─┬─ B 10..30
             └─ C 40..60 ── D 45..50 *)
let recorded () =
  let t = Span.create [| "a"; "b"; "c"; "d" |] in
  Span.enter_at t a ~ns:0;
  Span.enter_at t b ~ns:10;
  Span.exit_at t ~ns:30;
  Span.enter_at t c ~ns:40;
  Span.enter_at t d ~ns:45;
  Span.exit_at t ~ns:50;
  Span.exit_at t ~ns:60;
  Span.exit_at t ~ns:100;
  t

let test_self_time () =
  let t = recorded () in
  let check name i ~self =
    Alcotest.(check int) (name ^ " calls") 1 (Span.calls t i);
    Alcotest.(check int) (name ^ " self") self (Span.self_ns t i)
  in
  check "a" a ~self:60;
  check "b" b ~self:20;
  check "c" c ~self:15;
  check "d" d ~self:5;
  Alcotest.(check int) "self times sum to the root duration" 100
    (Span.self_sum_ns t);
  Alcotest.(check int) "stack empty" 0 (Span.depth t)

let test_aggregates_repeat () =
  (* Two roots with a child each: self times add per name. *)
  let t = Span.create [| "root"; "leaf" |] in
  List.iter
    (fun base ->
      Span.enter_at t 0 ~ns:base;
      Span.enter_at t 1 ~ns:(base + 2);
      Span.exit_at t ~ns:(base + 9);
      Span.exit_at t ~ns:(base + 10))
    [ 0; 100 ];
  Alcotest.(check int) "root self" 6 (Span.self_ns t 0);
  Alcotest.(check int) "leaf self" 14 (Span.self_ns t 1);
  Alcotest.(check int) "leaf calls" 2 (Span.calls t 1);
  Alcotest.(check int) "sum = root durations" 20 (Span.self_sum_ns t)

let test_deep_stack () =
  (* Deeper than the initial stack capacity. *)
  let t = Span.create [| "s" |] in
  for i = 0 to 199 do
    Span.enter_at t 0 ~ns:i
  done;
  for i = 199 downto 0 do
    Span.exit_at t ~ns:(400 - i)
  done;
  Alcotest.(check int) "self sum = outer duration" 400 (Span.self_sum_ns t);
  Alcotest.check_raises "exit without enter"
    (Invalid_argument "Span.exit: no open span") (fun () -> Span.exit_at t ~ns:0)

let test_summary () =
  Alcotest.(check (float 1e-12)) "median odd" 2. (Summary.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-12)) "median even" 2.5 (Summary.median [ 4.; 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-12)) "p100" 4. (Summary.percentile [ 4.; 1.; 2.; 3. ] 1.);
  Alcotest.(check (float 1e-12)) "slope" 2.
    (Summary.slope [ (0., 1.); (1., 3.); (2., 5.) ]);
  Alcotest.(check (float 1e-12)) "flat x" 0. (Summary.slope [ (1., 1.); (1., 3.) ])

let test_calib () =
  let r = Calib.ref_ns in
  Alcotest.(check int) "reference speed" 1000 (Calib.scale 1000 ~k0:r ~k1:r);
  Alcotest.(check int) "half speed" 500 (Calib.scale 1000 ~k0:(2 * r) ~k1:(2 * r));
  Alcotest.(check int) "mean of the samples" 800 (Calib.scale 1000 ~k0:r ~k1:(3 * r / 2));
  let calls = ref 0 in
  let scaled, raw =
    Calib.steps (fun k ->
        incr calls;
        k < 3)
  in
  Alcotest.(check int) "steps until false" 3 !calls;
  Alcotest.(check bool) "times are not negative" true (scaled >= 0 && raw >= 0)

let () =
  Alcotest.run "perfbench"
    [
      ( "span",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "aggregates" `Quick test_aggregates_repeat;
          Alcotest.test_case "deep stack" `Quick test_deep_stack;
        ] );
      ("summary", [ Alcotest.test_case "order statistics" `Quick test_summary ]);
      ("calib", [ Alcotest.test_case "scaling to the reference speed" `Quick test_calib ]);
    ]
