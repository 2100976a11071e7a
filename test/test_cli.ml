(* The mmd_engine CLI refuses flags the chosen replay mode does not
   read, honours --trace-out in every mode, builds its heartbeat config
   in one place, and reports a replay that dies mid-batch at the same
   position whatever the batch size. *)

open Helpers

let run ~dir args =
  Test_replay_pins.transcript ~dir ("TMP/inst.mmd" :: "--gen-deltas" :: "60" :: args)

let with_instance f =
  Test_replay_pins.with_tmp_dir (fun dir ->
      Out_channel.with_open_bin (Filename.concat dir "inst.mmd") (fun oc ->
          output_string oc
            (Test_replay_pins.read_file (Test_replay_pins.golden "engine.mmd")));
      f dir)

let check_refused ~dir args message =
  let out = run ~dir args in
  check_bool
    (String.concat " " args ^ " refused with " ^ message)
    true
    (contains out ("mmd_engine: " ^ message) && contains out "exit 124")

let test_unread_flags_refused () =
  with_instance (fun dir ->
      check_refused ~dir
        [ "--shards"; "2"; "--trace-out"; "TMP/t.json"; "--plan-out"; "TMP/p.txt";
          "--snapshot-out"; "TMP/s.eng"; "--crash-after"; "30" ]
        "--snapshot-out: not read in sharded mode";
      List.iter
        (fun f ->
          check_bool (f ^ " not written") false
            (Sys.file_exists (Filename.concat dir f)))
        [ "t.json"; "p.txt"; "s.eng" ];
      check_refused ~dir [ "--shards"; "2"; "--crash-after"; "30" ]
        "--crash-after: not read in sharded mode";
      check_refused ~dir [ "--shards"; "2"; "--plan-out"; "TMP/p.txt" ]
        "--plan-out: not read in sharded mode";
      check_refused ~dir [ "--shards"; "2"; "--kill-primary-at"; "5" ]
        "--kill-primary-at: not read in sharded mode";
      check_refused ~dir [ "--shards"; "2"; "--heartbeat-every"; "4" ]
        "--heartbeat-every: not read in sharded mode";
      check_refused ~dir [ "--kill-primary-at"; "5" ]
        "--kill-primary-at: not read in single mode";
      check_refused ~dir [ "--rebalance-every"; "50" ]
        "--rebalance-every: not read in single mode";
      check_refused ~dir [ "--shard-tags"; "a,b" ]
        "--shard-tags: not read in single mode";
      check_refused ~dir [ "--split"; "even" ] "--split: not read in single mode";
      check_refused ~dir [ "--replica-id"; "3" ]
        "--replica-id: not read in single mode";
      check_refused ~dir [ "--replicas"; "2"; "--rebalance-every"; "10" ]
        "--rebalance-every: not read in replicated mode";
      check_refused ~dir [ "--replicas"; "2"; "--checkpoint-every"; "10" ]
        "--checkpoint-every: not read in replicated mode")

let test_cadences_at_least_1 () =
  with_instance (fun dir ->
      List.iter
        (fun mode ->
          check_refused ~dir
            (mode @ [ "--heartbeat-every"; "0" ])
            "--heartbeat-every: need at least 1")
        [ []; [ "--replicas"; "2" ]; [ "--shards"; "2"; "--replicas"; "2" ] ];
      check_refused ~dir
        [ "--snapshot-out"; "TMP/s.eng"; "--snapshot-every"; "0" ]
        "--snapshot-every: need at least 1";
      check_refused ~dir
        [ "--shards"; "2"; "--rebalance-every"; "0" ]
        "--rebalance-every: need at least 1")

let test_trace_out_every_mode () =
  with_instance (fun dir ->
      List.iter
        (fun mode ->
          let trace = Filename.concat dir "trace.jsonl" in
          let out = run ~dir (mode @ [ "--trace-out"; "TMP/trace.jsonl" ]) in
          check_bool "exit 0" true (contains out "exit 0");
          check_bool "trace reported" true (contains out "trace -> TMP/trace.jsonl");
          check_bool "trace written" true
            (Sys.file_exists trace
            && String.length (Test_replay_pins.read_file trace) > 0);
          Sys.remove trace)
        [ []; [ "--replicas"; "2" ]; [ "--shards"; "2" ] ])

let test_heartbeat_config () =
  let module G = Replica.Group in
  check_bool "None is the default" true (G.heartbeat_config None = G.default_config);
  let c = G.heartbeat_config (Some 4) in
  check_int "cadence" 4 c.G.heartbeat_every;
  check_int "timeout keeps its floor" G.default_config.G.heartbeat_timeout
    c.G.heartbeat_timeout;
  check_int "timeout scales to 3 heartbeats" 30
    (G.heartbeat_config (Some 10)).G.heartbeat_timeout;
  Alcotest.check_raises "cadence below 1"
    (Invalid_argument "heartbeat_every: need at least 1") (fun () ->
      ignore (G.heartbeat_config (Some 0)))

(* Record 49 of a 100-delta log leaves a slot that never existed. The
   batch holding it has applied its first deltas when it dies, and
   every report of the position has to count them. *)
let test_mid_batch_abort_count () =
  with_instance (fun dir ->
      ignore
        (Test_replay_pins.transcript ~dir
           [ "TMP/inst.mmd"; "--gen-deltas"; "99"; "--seed"; "7";
             "--deltas-out"; "TMP/g.log" ]);
      let lines =
        String.split_on_char '\n'
          (Test_replay_pins.read_file (Filename.concat dir "g.log"))
        |> List.filter (fun l -> l <> "")
      in
      Out_channel.with_open_bin (Filename.concat dir "bad.log") (fun oc ->
          List.iteri
            (fun i l ->
              if i = 48 then output_string oc "leave 9999\n";
              output_string oc (l ^ "\n"))
            lines);
      List.iter
        (fun batch ->
          let out =
            Test_replay_pins.transcript ~dir
              [ "TMP/inst.mmd"; "-d"; "TMP/bad.log"; "--batch"; batch ]
          in
          List.iter
            (fun line -> check_bool ("--batch " ^ batch ^ ": " ^ line) true (contains out line))
            [ "last applied: 48 deltas this run (log seq 48)";
              "lifetime deltas: 48,";
              "replay aborted after 48 deltas (log seq 48)";
              "exit 124" ])
        [ "1"; "7"; "64" ])

let suite =
  [ Alcotest.test_case "flags a mode does not read are refused" `Quick
      test_unread_flags_refused;
    Alcotest.test_case "heartbeat and event periods below 1 refused" `Quick
      test_cadences_at_least_1;
    Alcotest.test_case "--trace-out honoured in every mode" `Quick
      test_trace_out_every_mode;
    Alcotest.test_case "heartbeat config built once" `Quick test_heartbeat_config;
    Alcotest.test_case "mid-batch abort reports one position" `Quick
      test_mid_batch_abort_count ]
