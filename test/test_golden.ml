(* Golden-trace regression plumbing: digest determinism, serial/parallel
   identity, file-format round-trips, and agreement with the checked-in
   test/golden/digests.txt. *)

let find_exn id =
  match Experiments.Registry.find id with
  | Some e -> e
  | None -> Alcotest.fail (Printf.sprintf "experiment %s not registered" id)

(* Cheap figures only: fig01 is an analytic CDF, fig04 the feedback-timer
   formula — both fast enough for tier-1. *)
let cheap = [ "fig01"; "fig04" ]

let test_digest_deterministic () =
  let e = find_exn "fig01" in
  let d1 =
    Experiments.Golden.digest_experiment e ~mode:Experiments.Scenario.Quick
      ~seed:42
  and d2 =
    Experiments.Golden.digest_experiment e ~mode:Experiments.Scenario.Quick
      ~seed:42
  in
  Alcotest.(check string) "same cell, same digest" d1 d2;
  Alcotest.(check int) "16 hex chars" 16 (String.length d1)

let test_serial_parallel_identical () =
  let experiments = List.map find_exn cheap in
  let serial =
    Experiments.Golden.compute ~experiments ~jobs:1
      ~mode:Experiments.Scenario.Quick ~seed:42 ()
  and parallel =
    Experiments.Golden.compute ~experiments ~jobs:2
      ~mode:Experiments.Scenario.Quick ~seed:42 ()
  in
  Alcotest.(check (list (pair string string)))
    "jobs:1 = jobs:2" serial parallel

let test_file_format_roundtrip () =
  let pairs = [ ("fig01", "0123456789abcdef"); ("fig02", "fedcba9876543210") ] in
  let text = Experiments.Golden.to_file_format pairs in
  Alcotest.(check (list (pair string string)))
    "roundtrip" pairs
    (Experiments.Golden.parse_file_format text);
  Alcotest.(check (list (pair string string)))
    "comments and blanks ignored" pairs
    (Experiments.Golden.parse_file_format ("# header\n\n" ^ text ^ "\n# foot\n"))

let test_diff_classification () =
  let expected = [ ("a", "1"); ("b", "2"); ("c", "3") ] in
  let actual = [ ("a", "1"); ("b", "9"); ("d", "4") ] in
  let d = Experiments.Golden.diff ~expected ~actual in
  let find id = List.assoc_opt id d in
  Alcotest.(check bool) "match is silent" true (find "a" = None);
  Alcotest.(check bool) "mismatch detected" true
    (find "b" = Some (`Mismatch ("2", "9")));
  Alcotest.(check bool) "missing detected" true (find "c" = Some `Missing);
  Alcotest.(check bool) "extra detected" true (find "d" = Some `Extra);
  Alcotest.(check int) "nothing else" 3 (List.length d)

let test_matches_checked_in_goldens () =
  (* The full file is regenerated by [tfmcc-sim verify-golden --regen]
     and verified across the whole registry by CI; here we pin just the
     cheap figures so tier-1 stays fast but still notices drift. *)
  let path =
    (* cwd is test/ under [dune runtest], the project root under
       [dune exec]. *)
    if Sys.file_exists "golden/digests.txt" then "golden/digests.txt"
    else "test/golden/digests.txt"
  in
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  let recorded = Experiments.Golden.parse_file_format text in
  List.iter
    (fun id ->
      match List.assoc_opt id recorded with
      | None -> Alcotest.fail (Printf.sprintf "%s absent from digests.txt" id)
      | Some expected ->
          let actual =
            Experiments.Golden.digest_experiment (find_exn id)
              ~mode:Experiments.Scenario.Quick ~seed:42
          in
          Alcotest.(check string) id expected actual)
    cheap

(* A wide equal-delay star: 1000 receivers behind identical tails, so
   every multicast fan-out lands as 1000 arrivals on one exact
   timestamp.  Drop-tail loss only.  It runs 9 simsec: slow start sends
   only 11 packets in the first 5, and by 9 the tail queues overflow.
   The digest pins the engine's event count, the sender's
   packets/reports/rate sampled every 0.1 simsec, and every receiver's
   delivered count.  Each receiver draws from its own random stream, so
   the order within a tie does not show here (the engine's dispatch
   property in test_netsim.ml checks that); a lost, duplicated or
   extra event at this width does. *)
let wide_star_digest = "effbc8485ab84ad2"

let test_wide_star_digest () =
  let module Sc = Experiments.Scenario in
  let n = 1000 and t_end = 9. in
  let st =
    Sc.star ~seed:7 ~obs:Obs.Sink.null ~link_bps:1e6
      ~link_delays:(Array.make n 0.02) ()
  in
  Tfmcc_core.Session.start st.Sc.s_session ~at:0.;
  let snd = Tfmcc_core.Session.sender st.Sc.s_session in
  let d = Check.Digest.create () in
  let line s =
    Check.Digest.add_string d s;
    Check.Digest.add_char d '\n'
  in
  Sc.sample_every st.Sc.s_sc ~dt:0.1 ~t_end (fun now ->
      line
        (Printf.sprintf "%.3f %d %d %.17g" now
           (Tfmcc_core.Sender.packets_sent snd)
           (Tfmcc_core.Sender.reports_received snd)
           (Tfmcc_core.Sender.rate_bytes_per_s snd)));
  Sc.run_until st.Sc.s_sc t_end;
  line
    (Printf.sprintf "events %d"
       (Netsim.Engine.events_processed st.Sc.s_sc.Sc.engine));
  Array.iter
    (fun node ->
      let rx =
        Tfmcc_core.Session.receiver st.Sc.s_session
          ~node_id:(Netsim.Node.id node)
      in
      line (string_of_int (Tfmcc_core.Receiver.packets_received rx)))
    st.Sc.s_rx_nodes;
  Alcotest.(check string) "wide star digest" wide_star_digest
    (Check.Digest.to_hex d)

let () =
  Alcotest.run "golden"
    [
      ( "digests",
        [
          Alcotest.test_case "deterministic" `Quick test_digest_deterministic;
          Alcotest.test_case "serial = parallel" `Quick
            test_serial_parallel_identical;
          Alcotest.test_case "file format roundtrip" `Quick
            test_file_format_roundtrip;
          Alcotest.test_case "diff classification" `Quick
            test_diff_classification;
          Alcotest.test_case "matches checked-in goldens" `Quick
            test_matches_checked_in_goldens;
          Alcotest.test_case "wide equal-delay star" `Quick
            test_wide_star_digest;
        ] );
    ]
