(* Benchmark entry point: runs one named workload for a given seed and
   duration and prints its metrics, output checks and a JSON result
   line (see perfbench/run.py, which builds and runs this).

   main.exe --workload NAME --seed N --seconds S --trace 0|1 *)

let workloads =
  [
    ("sim-star-4k", (Sim_star.measure, Sim_star.trace));
    ("sweep-quick", (Sweep_quick.measure, Sweep_quick.trace));
    ("rt-fanout-1k", (Rt_loopback.measure, Rt_loopback.trace));
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run or traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
      Printf.eprintf "unknown workload %S; one of: %s\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  | Some (measure, trace_run) ->
      let r = Report.create () in
      if !trace = 0 then measure r ~seed:!seed ~seconds:!seconds
      else trace_run r ~seed:!seed;
      Report.print r
