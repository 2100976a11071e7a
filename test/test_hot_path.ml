(* Hot-path overhaul invariants: batched delta application is
   bit-identical to one-at-a-time applies (whatever the batch size,
   epoch policy, shard count or domain count — the chaos matrix runs
   this suite under every VDMC_DOMAINS × VDMC_SHARDS combination), and
   a checkpoint-chain + compacted-segmented-WAL recovery reproduces
   the uninterrupted run bit-exactly from any crash boundary. *)

open Helpers
module C = Engine.Controller
module V = Engine.View
module WS = Engine.Wal_store
module K = Engine.Checkpoint
module R = Engine.Recovery
module P = Engine.Planner

let world ?(deltas = 100) seed =
  let rng = Prelude.Rng.create seed in
  let inst =
    Workloads.Generator.instance rng
      { Workloads.Generator.default with
        num_streams = 20;
        num_users = 12;
        m = 2;
        mc = 1;
        density = 0.3;
        budget_fraction = 0.3 }
  in
  let log =
    Engine.Churn.generate ~rng (V.of_instance inst)
      { Engine.Churn.default with deltas }
  in
  (inst, log)

let plan_text ctrl = Mmd.Io.assignment_to_string (C.plan ctrl)

let chunk batch log =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | d :: rest ->
        if k = batch then go (List.rev cur :: acc) [ d ] 1 rest
        else go acc (d :: cur) (k + 1) rest
  in
  go [] [] 0 log

let same_state a b =
  C.utility a = C.utility b
  && plan_text a = plan_text b
  && C.deltas_applied a = C.deltas_applied b
  && Engine.Counters.replans (C.counters a)
     = Engine.Counters.replans (C.counters b)

let with_tmp_dir f =
  let dir = Filename.temp_file "vdmc-hotpath" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* ---------- apply_batch ≡ apply, at every batch size ---------- *)

let batch_identity_prop (seed, batch, policy) =
  let inst, log = world seed in
  let one = C.create ~policy inst in
  List.iter (fun d -> ignore (C.apply one d)) log;
  let batched = C.create ~policy inst in
  List.iter (fun g -> C.apply_batch batched g) (chunk batch log);
  same_state one batched

let qcheck_batch_identity =
  qtest ~count:60 "apply_batch bit-identical to apply at any batch size"
    QCheck2.Gen.(
      triple (int_range 1 10_000) (int_range 1 300)
        (oneofl [ C.Every 8; C.Every 32; C.Drift 0.05; C.Manual ]))
    batch_identity_prop

(* The sharded router's batch entry point: same plans, same replans,
   same WAL-visible ordering as routing one delta at a time. *)
let sharded_batch_identity_prop (seed, batch, shards) =
  let inst, log = world seed in
  let mk () =
    Shard.Router.create ~policy:(C.Every 16)
      ~map:
        (Shard.Shard_map.create
           ~tags:(Array.init shards (fun i -> Printf.sprintf "r%d" (i mod 2)))
           ())
      inst
  in
  let one = mk () in
  List.iter (fun d -> ignore (Shard.Router.apply one d)) log;
  let batched = mk () in
  List.iter (fun g -> Shard.Router.apply_batch batched g) (chunk batch log);
  let same =
    Shard.Router.utility one = Shard.Router.utility batched
    && Shard.Router.counts one = Shard.Router.counts batched
    && (Shard.Router.report one).Engine.Counters.replans
       = (Shard.Router.report batched).Engine.Counters.replans
  in
  Shard.Router.close one;
  Shard.Router.close batched;
  same

let qcheck_sharded_batch_identity =
  qtest ~count:30 "router apply_batch bit-identical across shard counts"
    QCheck2.Gen.(
      triple (int_range 1 10_000) (int_range 1 128) (int_range 1 5))
    sharded_batch_identity_prop

(* The DES driver's deferred-departure buffer: stats are bit-identical
   at every batch because the buffer drains before each observation. *)
let des_batch_identity_prop (seed, batch) =
  let inst, _ = world seed in
  let run batch =
    Simnet.Engine_driver.run
      ~rng:(Prelude.Rng.create (seed * 3))
      ~duration:400. ~join_rate:0.3 ~mean_dwell:100. ~batch inst
  in
  let a = run 1 and b = run batch in
  a.Simnet.Engine_driver.utility_time = b.Simnet.Engine_driver.utility_time
  && a.Simnet.Engine_driver.final_utility
     = b.Simnet.Engine_driver.final_utility
  && a.Simnet.Engine_driver.joins = b.Simnet.Engine_driver.joins
  && a.Simnet.Engine_driver.leaves = b.Simnet.Engine_driver.leaves
  && a.Simnet.Engine_driver.report.Engine.Counters.replans
     = b.Simnet.Engine_driver.report.Engine.Counters.replans

let qcheck_des_batch_identity =
  qtest ~count:15 "simulation stats bit-identical at every batch"
    QCheck2.Gen.(pair (int_range 1 10_000) (int_range 2 64))
    des_batch_identity_prop

(* ---------- plan bits pinned across epoch replans ---------- *)

(* A churn run on a mid-size world, hashed after every epoch replan:
   the admitted set, every slot's delivered set, the planner's
   accumulated float state (bit patterns, not rounded decimals) and
   its marginal-evaluation count. Between replans the admitted set,
   the budget usage and the utility are hashed after every delta, so
   the churn repairs (joins, leaves, cost-change and budget-resize
   evictions) are pinned too. The expected digests were computed
   before the greedy kernel was rewritten for speed; any change to the
   evaluation order, the heap order, the eviction order or a single
   float operation shows up here as a different hex string. The
   initial users have finite utility caps (joiners do not), so capped
   and uncapped slots both occur. A [quantized] world has equal costs
   and unit utilities, so the greedy meets exact ties in
   cost-effectiveness and the tie-breaks are pinned too. *)
let plan_digest ~quantized seed =
  let rng = Prelude.Rng.create seed in
  let g = Workloads.Generator.default in
  let inst =
    Workloads.Generator.instance rng
      { g with
        num_streams = 300;
        num_users = 600;
        m = 2;
        mc = 1;
        density = 0.02;
        budget_fraction = 0.25;
        utility_cap_fraction = Some 0.4;
        cost_range = (if quantized then (2., 2.) else g.cost_range);
        utility_range = (if quantized then (1., 1.) else g.utility_range) }
  in
  let log =
    Engine.Churn.generate ~rng (V.of_instance inst)
      { Engine.Churn.default with deltas = 2_000 }
  in
  let ctrl = C.create ~policy:(C.Every 32) inst in
  let p = C.planner ctrl in
  let m = V.m (C.view ctrl) in
  let buf = Buffer.create 65_536 in
  let bits f = Printf.bprintf buf "%Lx," (Int64.bits_of_float f) in
  let ints l = List.iter (fun s -> Printf.bprintf buf "%d," s) l in
  let digest = ref (Digest.string "") in
  let fold () =
    digest := Digest.string (!digest ^ Digest.string (Buffer.contents buf));
    Buffer.clear buf
  in
  let epoch () =
    ints (P.admitted p);
    Buffer.add_char buf '|';
    for u = 0 to V.num_slots (C.view ctrl) - 1 do
      ints (P.delivered p u);
      Buffer.add_char buf ';'
    done;
    let total, used, slots = P.float_state p in
    bits total;
    Array.iter bits used;
    Array.iter
      (fun (du, capped, cu) ->
        bits du;
        bits capped;
        Array.iter bits cu)
      slots;
    Printf.bprintf buf "|%d" (P.evals p);
    fold ()
  in
  let repair () =
    ints (P.admitted p);
    for i = 0 to m - 1 do
      bits (P.server_used p i)
    done;
    bits (P.utility p);
    fold ()
  in
  epoch ();
  let epochs = ref 1 in
  List.iter
    (fun d ->
      ignore (C.apply ctrl d);
      if C.since_replan ctrl = 0 then begin
        incr epochs;
        epoch ()
      end
      else repair ())
    log;
  (!epochs, (C.report ctrl).Engine.Counters.evictions, Digest.to_hex !digest)

let test_plan_digest_pinned () =
  List.iter
    (fun (seed, quantized, epochs, evictions, hex) ->
      let epochs', evictions', hex' = plan_digest ~quantized seed in
      let name what = Printf.sprintf "seed %d: %s" seed what in
      check_int (name "epochs") epochs epochs';
      check_int (name "evictions") evictions evictions';
      Alcotest.(check string) (name "plan digest") hex hex')
    [ (1, false, 63, 41, "0aab83b433ad33b5693775a7c04d6848");
      (4, true, 63, 67, "8b82387e57282f943822293a6e0f7981");
      (5, true, 63, 50, "e3efe4cd57001552ef12acb7910f7337") ]

(* ---------- chain + compacted store: crash anywhere ---------- *)

(* Crash after [k] of [n] deltas with checkpoints every
   [checkpoint_every] and segments of [segment_records]; recover from
   the chain plus the compacted store's tail; then finish the
   remaining log on the recovered controller. The result must be
   bit-identical to the run that never crashed. *)
let chain_recovery_prop (seed, cut_frac, checkpoint_every, segment_records) =
  let inst, log = world seed in
  let n = List.length log in
  let k = max 0 (min (n - 1) (int_of_float (cut_frac *. float n))) in
  let policy = C.Every 16 in
  let reference = C.create ~policy inst in
  List.iter (fun d -> ignore (C.apply reference d)) log;
  C.replan reference;
  with_tmp_dir (fun dir ->
      let chain_path = Filename.concat dir "chain.ckpt" in
      let store = WS.open_dir ~segment_records dir in
      let ctrl = C.create ~policy inst in
      let writer = K.create_writer ~path:chain_path ctrl in
      List.iteri
        (fun i d ->
          if i < k then begin
            ignore (WS.append_tee ~flush:false store d);
            K.note writer (C.apply ctrl d);
            if (i + 1) mod checkpoint_every = 0 then begin
              K.checkpoint writer ctrl;
              ignore (WS.compact store ~covered:(K.covered writer))
            end
          end)
        log;
      WS.close store;
      K.close_writer writer;
      (* "Power is back." A chain with no valid increment (crash before
         the first checkpoint) falls back to a fresh controller — the
         full-replay path. *)
      let restored, covered =
        match K.recover ~path:chain_path with
        | Ok r -> (r.K.ctrl, r.K.covered)
        | Error _ -> (C.create ~policy inst, 0)
      in
      let records, first_seq =
        (* An empty directory (crash before the first append) recovers
           as an empty store. *)
        match WS.recover_dir dir with
        | Ok r -> (r.WS.records, r.WS.first_seq)
        | Error _ -> ([], 1)
      in
      (* Compaction must never delete past the chain's coverage. *)
      let compaction_safe = first_seq <= covered + 1 in
      List.iter
        (fun (seq, d) -> if seq > covered then ignore (C.apply restored d))
        records;
      let caught_up = C.deltas_applied restored = k in
      (* Continue the run where the crash interrupted it. *)
      List.iteri
        (fun i d -> if i >= k then ignore (C.apply restored d))
        log;
      C.replan restored;
      compaction_safe && caught_up && same_state restored reference)

let qcheck_chain_recovery =
  qtest ~count:40
    "chain + compacted store: crash anywhere, resume bit-identical"
    QCheck2.Gen.(
      quad (int_range 1 10_000) (float_range 0. 1.) (int_range 1 40)
        (int_range 1 32))
    chain_recovery_prop

(* ---------- Wal_store mechanics ---------- *)

let test_store_roll_resume_compact () =
  let _, log = world ~deltas:60 41 in
  with_tmp_dir (fun dir ->
      let store = WS.open_dir ~segment_records:10 dir in
      List.iter (fun d -> ignore (WS.append store d)) log;
      WS.close store;
      check_int "six segments" 6 (List.length (WS.segments dir));
      (* Reopen: appends resume after the last record on disk. *)
      let store = WS.open_dir ~segment_records:10 dir in
      check_int "resumes at 61" 61 (WS.next_seq store);
      ignore (WS.append store (Engine.Delta.User_leave 0));
      (* Compact away everything a checkpoint at 35 covers: segments
         1-10, 11-20, 21-30 go; 31-40 straddles the boundary and
         stays. *)
      let removed = WS.compact store ~covered:35 in
      check_int "three segments retired" 3 removed;
      WS.close store;
      match WS.recover_dir dir with
      | Error m -> Alcotest.fail m
      | Ok r ->
          check_int "first surviving seq" 31 r.WS.first_seq;
          check_int "last seq" 61 r.WS.last_seq;
          check_bool "no torn tail" false r.WS.torn_tail;
          check_int "records readable" 31 (List.length r.WS.records))

let test_store_bytes_match_wal () =
  (* A segmented store's concatenated bytes are exactly a monolithic
     WAL's (magic per segment aside): same framing, same seqs. *)
  let _, log = world ~deltas:25 43 in
  with_tmp_dir (fun dir ->
      let store = WS.open_dir ~segment_records:1000 dir in
      List.iter (fun d -> ignore (WS.append store d)) log;
      WS.close store;
      match WS.segments dir with
      | [ (1, path) ] ->
          let ic = open_in_bin path in
          let text = really_input_string ic (in_channel_length ic) in
          close_in ic;
          check_bool "single segment is a plain wal" true
            (text = Engine.Wal.to_string log)
      | l -> Alcotest.failf "expected one segment, got %d" (List.length l))

(* ---------- checkpoint chain mechanics ---------- *)

let test_chain_peek_and_torn_tail () =
  let inst, log = world ~deltas:80 47 in
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "chain.ckpt" in
      let ctrl = C.create ~policy:(C.Every 16) inst in
      let w = K.create_writer ~path ctrl in
      List.iteri
        (fun i d ->
          K.note w (C.apply ctrl d);
          if (i + 1) mod 20 = 0 then K.checkpoint w ctrl)
        log;
      K.close_writer w;
      (match K.peek path with
      | Some (bytes, covered, increments) ->
          check_int "covers 80" 80 covered;
          check_int "four increments" 4 increments;
          check_bool "bytes positive" true (bytes > 0)
      | None -> Alcotest.fail "peek failed on a healthy chain");
      (* Tear the last increment: recovery falls back to the previous
         one, bit-identically. *)
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc (String.sub text 0 (String.length text - 31));
      close_out oc;
      match (K.peek path, K.recover ~path) with
      | Some (_, covered, increments), Ok r ->
          check_int "fell back to increment 3" 3 increments;
          check_int "covers 60" 60 covered;
          check_bool "torn suffix reported" true r.K.torn;
          check_int "recovered at 60" 60 (C.deltas_applied r.K.ctrl)
      | None, _ -> Alcotest.fail "peek failed after tear"
      | _, Error m -> Alcotest.fail m)

(* A writer reopened on a chain with a torn tail appends after the
   valid prefix, so what it appends is read back. *)
let test_chain_append_after_torn_tail () =
  let inst, log = world ~deltas:80 47 in
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "chain.ckpt" in
      let ctrl = C.create ~policy:(C.Every 16) inst in
      let w = K.create_writer ~path ctrl in
      List.iteri
        (fun i d ->
          K.note w (C.apply ctrl d);
          if (i + 1) mod 20 = 0 then K.checkpoint w ctrl)
        log;
      K.close_writer w;
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc (String.sub text 0 (String.length text - 31));
      close_out oc;
      (* The controller is at 80, the chain's valid prefix at 60: the
         next increment is a full one. *)
      let w = K.create_writer ~path ctrl in
      check_int "resumes at the valid prefix" 60 (K.covered w);
      K.checkpoint w ctrl;
      K.close_writer w;
      match K.recover ~path with
      | Ok r ->
          check_bool "no torn suffix left" false r.K.torn;
          check_int "covers the appended increment" 80 r.K.covered;
          check_float "same utility" (C.utility ctrl) (C.utility r.K.ctrl)
      | Error m -> Alcotest.fail m)

(* ---------- the recovery chooser ---------- *)

let test_chooser_three_way () =
  (* Pure cost model: relative magnitudes decide. *)
  let est =
    R.choose ~chain:(1_000, 950) ~snapshot_bytes:500_000 ~total_records:1_000
      ~covered:900 ()
  in
  check_bool "short chain tail wins" true (est.R.choice = R.Chain_tail);
  let est =
    R.choose ~snapshot_bytes:800 ~total_records:10_000 ~covered:9_900 ()
  in
  check_bool "snapshot wins without a chain" true
    (est.R.choice = R.Snapshot_tail);
  let est =
    R.choose ~chain:(50_000_000, 10) ~snapshot_bytes:(-1) ~total_records:100
      ~covered:0 ()
  in
  check_bool "tiny log replays" true (est.R.choice = R.Full_replay);
  (* Ties break toward the chain (shorter tail on disk growth). *)
  let est =
    R.choose ~chain:(100, 500) ~snapshot_bytes:100 ~total_records:1_000
      ~covered:500 ()
  in
  check_bool "tie goes to the chain" true (est.R.choice = R.Chain_tail)

let test_assess_prefers_chain_on_disk () =
  let inst, log = world ~deltas:80 53 in
  with_tmp_dir (fun dir ->
      let chain_path = Filename.concat dir "chain.ckpt" in
      let snap_path = Filename.concat dir "none.eng" in
      let ctrl = C.create ~policy:(C.Every 16) inst in
      let w = K.create_writer ~path:chain_path ctrl in
      List.iteri
        (fun i d ->
          K.note w (C.apply ctrl d);
          if (i + 1) mod 20 = 0 then K.checkpoint w ctrl)
        log;
      K.close_writer w;
      let est = R.assess ~chain_path ~snapshot_path:snap_path
          ~total_records:85 ()
      in
      check_bool "chain beats full replay of 85" true
        (est.R.choice = R.Chain_tail);
      (* A chain that is ahead of the WAL (more coverage than records
         exist) is not a tail-replay situation. *)
      let est =
        R.assess ~chain_path ~snapshot_path:snap_path ~total_records:40 ()
      in
      check_bool "stale WAL falls back to replay" true
        (est.R.choice = R.Full_replay))

let suite =
  [ qcheck_batch_identity;
    qcheck_sharded_batch_identity;
    qcheck_des_batch_identity;
    qcheck_chain_recovery;
    Alcotest.test_case "replan plan bits pinned across epochs" `Quick
      test_plan_digest_pinned;
    Alcotest.test_case "store: roll, resume, compact" `Quick
      test_store_roll_resume_compact;
    Alcotest.test_case "store: single segment is a plain wal" `Quick
      test_store_bytes_match_wal;
    Alcotest.test_case "chain: peek and torn-tail fallback" `Quick
      test_chain_peek_and_torn_tail;
    Alcotest.test_case "chain: append after a torn tail" `Quick
      test_chain_append_after_torn_tail;
    Alcotest.test_case "chooser: three-way cost model" `Quick
      test_chooser_three_way;
    Alcotest.test_case "chooser: assess on-disk artifacts" `Quick
      test_assess_prefers_chain_on_disk ]
