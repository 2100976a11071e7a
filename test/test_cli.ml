(* The mmd_engine CLI refuses flags the chosen replay mode does not
   read, honours --trace-out in every mode, builds its heartbeat config
   in one place, and reports a replay that dies mid-batch at the same
   position whatever the batch size. *)

open Helpers

let run ?(log = [ "--gen-deltas"; "60" ]) ~dir args =
  Test_replay_pins.transcript ~dir (("TMP/inst.mmd" :: log) @ args)

let with_instance f =
  Test_replay_pins.with_tmp_dir (fun dir ->
      Out_channel.with_open_bin (Filename.concat dir "inst.mmd") (fun oc ->
          output_string oc
            (Test_replay_pins.read_file (Test_replay_pins.golden "engine.mmd")));
      f dir)

let check_refused ?log ~dir args message =
  let out = run ?log ~dir args in
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

(* The multi-process modes refuse a flag they do not read before they
   listen, dial or spawn anything. *)
let test_process_modes_refuse_unread_flags () =
  with_instance (fun dir ->
      check_refused ~log:[] ~dir
        [ "--replica-listen"; "unix:TMP/f.sock"; "--kill-primary-at"; "5" ]
        "--kill-primary-at: not read in listen mode";
      check_refused ~log:[] ~dir
        [ "--replica-listen"; "unix:TMP/f.sock"; "--batch"; "64" ]
        "--batch: not read in listen mode";
      check_refused ~dir [ "--replica-listen"; "unix:TMP/f.sock" ]
        "--gen-deltas: not read in listen mode";
      check_refused ~dir
        [ "--replica-connect"; "unix:TMP/f.sock"; "--certify" ]
        "--certify: not read in connect mode";
      check_refused ~dir
        [ "--replica-connect"; "unix:TMP/f.sock"; "--snapshot-out";
          "TMP/x.eng" ]
        "--snapshot-out: not read in connect mode";
      check_refused ~dir [ "--replica-supervise"; "1"; "--certify" ]
        "--certify: not read in supervise mode";
      check_refused ~dir [ "--replica-supervise"; "1"; "--stats" ]
        "--stats: not read in supervise mode";
      check_bool "no snapshot written" false
        (Sys.file_exists (Filename.concat dir "x.eng")))

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

(* A v1 WAL is still recognised as a WAL, so it is refused by its
   magic instead of being parsed as a text delta log. *)
let test_v1_wal_refused () =
  with_instance (fun dir ->
      Out_channel.with_open_bin (Filename.concat dir "v1.wal") (fun oc ->
          output_string oc
            (Test_replay_pins.read_file (Test_replay_pins.golden "codec.wal")));
      let out =
        Test_replay_pins.transcript ~dir [ "TMP/inst.mmd"; "-d"; "TMP/v1.wal" ]
      in
      check_bool "names the v1 magic" true (contains out "mmd-engine-wal v1");
      check_bool "exits non-zero" false (contains out "exit 0");
      (* Nor is one appended to: v2 records behind a v1 magic would
         leave a log no reader accepts. *)
      let out =
        Test_replay_pins.transcript ~dir
          [ "TMP/inst.mmd"; "--gen-deltas"; "10"; "--wal-out"; "TMP/v1.wal" ]
      in
      check_bool "--wal-out names the v1 magic" true (contains out "mmd-engine-wal v1");
      check_bool "--wal-out exits non-zero" false (contains out "exit 0");
      check_bool "the v1 file is left as it was" true
        (Test_replay_pins.read_file (Filename.concat dir "v1.wal")
        = Test_replay_pins.read_file (Test_replay_pins.golden "codec.wal"));
      (* Nor is a --wal-dir store holding one taken for a fresh store. *)
      let segment = Filename.concat dir "wd/segment-0000000001.wal" in
      Sys.mkdir (Filename.concat dir "wd") 0o755;
      Sys.rename (Filename.concat dir "v1.wal") segment;
      let out =
        Test_replay_pins.transcript ~dir
          [ "TMP/inst.mmd"; "--gen-deltas"; "10"; "--wal-dir"; "TMP/wd" ]
      in
      check_bool "--wal-dir names the v1 magic" true
        (contains out "mmd-engine-wal v1");
      check_bool "--wal-dir exits non-zero" false (contains out "exit 0");
      check_bool "the v1 segment is left as it was" true
        (Test_replay_pins.read_file segment
        = Test_replay_pins.read_file (Test_replay_pins.golden "codec.wal")))

(* One rule for a damaged snapshot, whichever way the run resumes: as
   FILE or through --snapshot-in, the previous generation is restored
   and the run ends on the uninterrupted run's plan. *)
let test_damaged_snapshot_falls_back () =
  with_instance (fun dir ->
      let transcript = Test_replay_pins.transcript ~dir in
      let wal = [ "-d"; "TMP/churn.wal" ] in
      let plan out =
        List.find_opt
          (String.starts_with ~prefix:"plan: ")
          (String.split_on_char '\n' out)
      in
      let whole =
        transcript
          [ "TMP/inst.mmd"; "--gen-deltas"; "400"; "--seed"; "7"; "--wal-out";
            "TMP/churn.wal" ]
      in
      ignore
        (transcript
           (("TMP/inst.mmd" :: wal)
           @ [ "--snapshot-out"; "TMP/s.eng"; "--snapshot-every"; "50";
               "--crash-after"; "120" ]));
      let snap = Filename.concat dir "s.eng" in
      let b = Bytes.of_string (Test_replay_pins.read_file snap) in
      let i = Bytes.length b / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      Out_channel.with_open_bin snap (fun oc -> Out_channel.output_bytes oc b);
      List.iter
        (fun (how, args) ->
          let out = transcript args in
          check_bool (how ^ ": exit 0") true (contains out "exit 0");
          check_bool (how ^ ": fell back") true
            (contains out "fell back to previous generation");
          check_bool (how ^ ": resumed at seq 50") true
            (contains out "skipping 50 record(s)");
          check_bool (how ^ ": final plan") true
            (plan out <> None && plan out = plan whole))
        [ ("as FILE", "TMP/s.eng" :: wal);
          ( "--snapshot-in",
            ("TMP/inst.mmd" :: wal) @ [ "--snapshot-in"; "TMP/s.eng" ] ) ])

let suite =
  [ Alcotest.test_case "flags a mode does not read are refused" `Quick
      test_unread_flags_refused;
    Alcotest.test_case "process modes refuse flags they do not read" `Quick
      test_process_modes_refuse_unread_flags;
    Alcotest.test_case "heartbeat and event periods below 1 refused" `Quick
      test_cadences_at_least_1;
    Alcotest.test_case "--trace-out honoured in every mode" `Quick
      test_trace_out_every_mode;
    Alcotest.test_case "heartbeat config built once" `Quick test_heartbeat_config;
    Alcotest.test_case "a v1 WAL is refused by name" `Quick test_v1_wal_refused;
    Alcotest.test_case "mid-batch abort reports one position" `Quick
      test_mid_batch_abort_count;
    Alcotest.test_case "a damaged snapshot falls back either way" `Quick
      test_damaged_snapshot_falls_back ]
