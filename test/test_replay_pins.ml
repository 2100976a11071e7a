(* Pins on the two replay loops: the mmd_engine CLI's printed output in
   single, batched, sharded, replicated, sharded-replicated, WAL-dir
   crash/resume and snapshot crash/resume modes, and the deterministic
   fields of the discrete-event driver's stats.
   Both are compared against committed files under golden/, so a
   rewrite of either loop has to reproduce them byte for byte.

   golden/engine.mmd is the output of
   [mmd_gen --streams 40 --users 60 -m 2]. Lines that carry wall time
   are dropped, and the recovery chooser's estimates elided, before
   comparing. On a mismatch the actual text is
   written next to the test binary as <golden>.actual. *)

open Helpers

let engine_exe =
  List.find Sys.file_exists
    [ "../bin/mmd_engine.exe"; "_build/default/bin/mmd_engine.exe" ]

let golden_dir =
  List.find Sys.file_exists [ "golden"; "test/golden" ]

let golden name = Filename.concat golden_dir name

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_golden name actual =
  let expected =
    if Sys.file_exists (golden name) then read_file (golden name) else ""
  in
  if expected <> actual then begin
    let oc = open_out_bin (name ^ ".actual") in
    output_string oc actual;
    close_out oc
  end;
  Alcotest.(check string) name expected actual

(* Replace every occurrence of [sub] in [s] by [by]. *)
let replace_all ~sub ~by s =
  let n = String.length sub in
  let b = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i < String.length s do
    if !i + n <= String.length s && String.sub s !i n = sub then begin
      Buffer.add_string b by;
      i := !i + n
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* The CI smoke's [deltas/s|latency|seconds] filter, plus the promote
   and tail-replay timing lines. *)
let timing_line l =
  List.exists (contains l)
    [ "deltas/s"; "latency"; "seconds"; "time to promote:" ]
  || (contains l "replayed " && contains l " tail record(s) in ")

(* The recovery chooser prices the checkpoint chain by its size in
   bytes, and the chain carries latency histograms, so its estimates
   move with wall time too; keep only the choice. *)
let elide_estimates l =
  let prefix = "recovery: taking " in
  if String.starts_with ~prefix l then
    match String.index_opt l '(' with
    | Some i -> String.sub l 0 i ^ "(estimates elided)"
    | None -> l
  else l

(* Run the engine with [args] (TMP stands for [dir]) and render the
   invocation, its filtered output and its exit status. *)
let transcript ~dir args =
  let real = List.map (replace_all ~sub:"TMP" ~by:dir) args in
  let cmd = Filename.quote_command engine_exe real ^ " 2>&1" in
  let ic = Unix.open_process_in cmd in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let status =
    match Unix.close_process_in ic with
    | Unix.WEXITED c -> Printf.sprintf "exit %d" c
    | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
    | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s
  in
  let out =
    List.rev !lines
    |> List.filter (fun l -> not (timing_line l))
    |> List.map elide_estimates
    |> List.map (replace_all ~sub:dir ~by:"TMP")
  in
  String.concat "\n"
    ((("$ mmd_engine " ^ String.concat " " args) :: out) @ [ status ])
  ^ "\n"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_tmp_dir f =
  let dir = Filename.temp_dir "mmd-pins" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let cli_case name runs () =
  with_tmp_dir (fun dir ->
      let inst = Filename.concat dir "inst.mmd" in
      Out_channel.with_open_bin inst (fun oc ->
          output_string oc (read_file (golden "engine.mmd")));
      let text =
        String.concat "" (List.map (fun args -> transcript ~dir args) runs)
      in
      check_golden name text)

let inst = "TMP/inst.mmd"
let gen = [ inst; "--gen-deltas"; "400"; "--seed"; "7" ]

(* Snapshot crash and resume over a WAL, so the resumed runs skip what
   the snapshot covers: the uninterrupted run that writes the WAL, a
   crash at 120 with snapshots every 50 (the last one covers 100), and
   the resume from the snapshot as FILE, and through --snapshot-in at
   plain and at --batch 64. *)
let snapshot_runs =
  let wal = [ "-d"; "TMP/churn.wal" ] in
  [ gen @ [ "--wal-out"; "TMP/churn.wal" ];
    (inst :: wal)
    @ [ "--snapshot-out"; "TMP/s.eng"; "--snapshot-every"; "50";
        "--crash-after"; "120" ];
    "TMP/s.eng" :: wal;
    (inst :: wal) @ [ "--snapshot-in"; "TMP/s.eng" ];
    (inst :: wal) @ [ "--snapshot-in"; "TMP/s.eng"; "--batch"; "64" ] ]

let cli_cases =
  [ ("engine_plain.txt", [ gen ]);
    ("engine_batch.txt", [ gen @ [ "--batch"; "64" ] ]);
    ("engine_sharded.txt", [ gen @ [ "--shards"; "2"; "--rebalance-every"; "50" ] ]);
    ( "engine_sharded_replicated.txt",
      let sharded =
        gen
        @ [ "--shards"; "2"; "--replicas"; "2"; "--rebalance-every"; "50";
            "--wal-out"; "TMP/shards" ]
      in
      [ sharded; sharded @ [ "--batch"; "64" ] ] );
    ( "engine_replicated.txt",
      [ gen @ [ "--replicas"; "2"; "--kill-primary-at"; "200" ] ] );
    ( "engine_wal_dir.txt",
      [ gen
        @ [ "--deltas-out"; "TMP/churn.log"; "--wal-dir"; "TMP/wd";
            "--checkpoint-every"; "100"; "--crash-after"; "250" ];
        [ inst; "-d"; "TMP/churn.log"; "--seed"; "7"; "--wal-dir"; "TMP/wd";
          "--checkpoint-every"; "100" ] ] );
    ("engine_snapshot.txt", snapshot_runs) ]

(* ---------- discrete-event driver ---------- *)

let bits f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

let stats_line label (s : Simnet.Engine_driver.stats) =
  let r = s.Simnet.Engine_driver.report in
  Printf.sprintf
    "%s: utility_time=%s final_utility=%s joins=%d leaves=%d peak=%d \
     replans=%d evictions=%d faults=%d recoveries=%d"
    label
    (bits s.Simnet.Engine_driver.utility_time)
    (bits s.Simnet.Engine_driver.final_utility)
    s.Simnet.Engine_driver.joins s.Simnet.Engine_driver.leaves
    s.Simnet.Engine_driver.peak_population r.Engine.Counters.replans
    r.Engine.Counters.evictions r.Engine.Counters.faults
    r.Engine.Counters.recoveries

let driver_world () =
  random_mmd ~seed:11 ~num_streams:20 ~num_users:12 ~m:2 ~mc:1 ~skew:1.0

let test_driver_stats () =
  let inst = driver_world () in
  let run ?faults batch =
    Simnet.Engine_driver.run
      ~rng:(Prelude.Rng.create 99)
      ~duration:400. ~join_rate:0.3 ~mean_dwell:100. ?faults ~batch inst
  in
  let faults =
    Engine.Fault.generate ~rng:(Prelude.Rng.create 60) ~deltas:100
      ~num_streams:(Mmd.Instance.num_streams inst)
      ~count:12
  in
  let replicated =
    Simnet.Engine_driver.run_replicated
      ~rng:(Prelude.Rng.create 99)
      ~duration:400. ~join_rate:0.3 ~mean_dwell:100. ~replicas:2
      ~kill_primary_at:150.
      ~faults:
        (Engine.Fault.generate_replication ~rng:(Prelude.Rng.create 61)
           ~deltas:100 ~replicas:2 ~count:6)
      inst
  in
  let lines =
    [ stats_line "run batch=1" (run 1);
      stats_line "run batch=8" (run 8);
      stats_line "run faults" (run ~faults 1);
      stats_line "run_replicated" replicated.Simnet.Engine_driver.rbase;
      Printf.sprintf
        "run_replicated: failovers=%d term=%d primary=%d acked=%d last_seq=%d"
        replicated.Simnet.Engine_driver.failovers
        replicated.Simnet.Engine_driver.final_term
        replicated.Simnet.Engine_driver.final_primary
        replicated.Simnet.Engine_driver.min_follower_acked
        replicated.Simnet.Engine_driver.replicated_last_seq ]
  in
  check_golden "engine_driver.txt" (String.concat "\n" lines ^ "\n")

let suite =
  List.map
    (fun (name, runs) ->
      Alcotest.test_case ("cli golden " ^ name) `Quick (cli_case name runs))
    cli_cases
  @ [ Alcotest.test_case "driver stats golden" `Quick test_driver_stats ]
