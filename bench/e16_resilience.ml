(* E16 — resilience under injected faults. Two questions:

   1. Utility under faults: replay a churn log while a seeded
      {!Engine.Fault} schedule fires budget shocks, stream outages and
      pool-task exceptions at delta boundaries. Shocks are persistent
      regime changes, so the metric is how much utility the degraded-
      mode repairs + supervised replans retain relative to the
      fault-free run of the same log, and how fast each recovery was
      (time-to-recover from the counters).

   2. Crash-recovery latency: crash the engine halfway through a
      WAL-backed run with periodic snapshots, then restore (snapshot +
      WAL tail replay) and verify the recovered plan is bit-identical
      to the uninterrupted run. Reported against the cost of replaying
      the whole log from scratch.

   Results land in BENCH_resilience.json. VDMC_SMOKE=1 shrinks the
   world for CI: the point there is the bit-identical check, not the
   timings. *)

open Exp_common
module C = Engine.Controller
module F = Engine.Fault
module W = Engine.Wal
module S = Engine.Snapshot

let json_out = "BENCH_resilience.json"

let make_world ~num_streams ~num_users ~deltas seed =
  let rng = Prelude.Rng.create seed in
  let inst =
    Workloads.Generator.instance rng
      { Workloads.Generator.default with
        num_streams;
        num_users;
        m = 2;
        mc = 1;
        density = 0.25;
        budget_fraction = 0.3 }
  in
  let log =
    Engine.Churn.generate ~rng
      (Engine.View.of_instance inst)
      { Engine.Churn.default with deltas }
  in
  (inst, log)

(* Replay [log] firing the fault schedule at delta boundaries, the
   same dispatch the simulation driver uses: shocks are absorbed
   through the controller's degraded-mode repair, task exceptions go
   through the supervised replan (first attempt dies, retry wins). *)
let apply_with_faults ctrl log schedule =
  List.iteri
    (fun i d ->
      ignore (C.apply ctrl d);
      List.iter
        (fun (e : F.event) ->
          match e.F.kind with
          | F.Budget_shock _ | F.Stream_outage _ -> (
              match F.shock_delta (C.view ctrl) e.F.kind with
              | Some shock -> ignore (C.absorb_shock ctrl shock)
              | None -> ())
          | F.Task_exn ->
              Engine.Counters.note_fault (C.counters ctrl);
              ignore
                (Simnet.Engine_driver.supervised_replan
                   ~inject:(fun ~attempt ->
                     if attempt = 0 then F.raise_in_pool ())
                   ctrl)
          | F.Corrupt_log | F.Torn_snapshot ->
              (* Storage faults attack the WAL/snapshot layer; the
                 crash-recovery section exercises that path. *)
              ()
          | F.Drop_frame _ | F.Dup_frame _ | F.Reorder_frames _
          | F.Truncate_frame _ | F.Follower_crash _ | F.Primary_crash
          | F.Heartbeat_partition _ | F.Hold_frames _ | F.Link_partition _
          | F.Link_reset _ | F.Hand_over ->
              (* Replication faults are E19/E21's subject, not E16's. *)
              ())
        (F.at schedule (i + 1)))
    log

let run () =
  let smoke = Sys.getenv_opt "VDMC_SMOKE" <> None in
  let num_streams = if smoke then 40 else 120 in
  let num_users = if smoke then 25 else 80 in
  let deltas = if smoke then 400 else 4000 in
  let replicas = if smoke then 2 else 4 in
  header "E16"
    (Printf.sprintf
       "resilience: utility under faults + crash recovery (n=%d, %d deltas)"
       num_streams deltas);

  (* ----- utility under injected faults ----- *)
  let fault_counts = [ 0; 2; 5; 10 ] in
  let table =
    T.create
      [ ("faults", T.Right); ("utility retained", T.Right);
        ("recoveries", T.Right); ("evictions", T.Right);
        ("mean ttr (ms)", T.Right); ("max ttr (ms)", T.Right);
        ("fallbacks", T.Right) ]
  in
  let sweep =
    List.map
      (fun count ->
        let ratios = ref []
        and recoveries = ref 0
        and evictions = ref 0
        and fallbacks = ref 0
        and ttrs = ref [] in
        for r = 0 to replicas - 1 do
          let seed = 1600 + (37 * r) in
          let inst, log = make_world ~num_streams ~num_users ~deltas seed in
          let baseline = C.create ~policy:(C.Every 100) inst in
          C.apply_all baseline log;
          C.replan baseline;
          let schedule =
            F.generate
              ~rng:(Prelude.Rng.create (seed + (71 * (count + 1))))
              ~deltas
              ~num_streams:(Mmd.Instance.num_streams inst)
              ~count
          in
          let ctrl = C.create ~policy:(C.Every 100) inst in
          apply_with_faults ctrl log schedule;
          C.replan ctrl;
          let u0 = C.utility baseline and u = C.utility ctrl in
          ratios := (if u0 > 0. then u /. u0 else 1.) :: !ratios;
          let report = C.report ctrl in
          recoveries := !recoveries + report.Engine.Counters.recoveries;
          fallbacks := !fallbacks + report.Engine.Counters.fallbacks;
          evictions := !evictions + report.Engine.Counters.evictions;
          let lat = report.Engine.Counters.recovery_latency in
          if lat.Prelude.Stats.count > 0 then
            ttrs :=
              (lat.Prelude.Stats.mean, lat.Prelude.Stats.max) :: !ttrs
        done;
        let mean_ratio =
          List.fold_left ( +. ) 0. !ratios /. float (List.length !ratios)
        in
        let mean_ttr =
          match !ttrs with
          | [] -> 0.
          | l ->
              List.fold_left (fun acc (m, _) -> acc +. m) 0. l
              /. float (List.length l)
        in
        let max_ttr =
          List.fold_left (fun acc (_, mx) -> Float.max acc mx) 0. !ttrs
        in
        Printf.printf
          "  %2d fault(s): utility retained %.4f, %d recoveries, %d \
           evictions, %d fallbacks\n\
           %!"
          count mean_ratio !recoveries !evictions !fallbacks;
        T.add_row table
          [ T.cell_i count;
            Printf.sprintf "%.4f" mean_ratio;
            T.cell_i !recoveries;
            T.cell_i !evictions;
            Printf.sprintf "%.3f" (1000. *. mean_ttr);
            Printf.sprintf "%.3f" (1000. *. max_ttr);
            T.cell_i !fallbacks ];
        (count, mean_ratio, !recoveries, !evictions, mean_ttr, max_ttr,
         !fallbacks))
      fault_counts
  in
  T.print table;

  (* ----- crash-recovery latency: a length sweep -----

     This sweep measures, at every log length, all three recovery
     paths from cold disk state (parse included): full WAL replay,
     snapshot + store tail, and checkpoint-chain + store tail — and
     checks that the {!Engine.Recovery} chooser picks a path that
     actually beats replay, with a bit-identical result. The snapshot
     and the chain are the same format: a snapshot is a chain of one
     full increment, the chain a full increment and its diffs.

     The crashing run is the production shape: WAL-first appends into
     a segmented {!Engine.Wal_store}, a checkpoint-chain increment and
     a full snapshot every [deltas/10] applies, compaction after each
     checkpoint, death half a checkpoint interval past the midpoint —
     so recovery has a genuine tail (the records after the last
     checkpoint) and every path starts from the identical disk state
     the crash left behind. The cold-replay baseline replays that same
     record stream from an uncompacted monolithic WAL — the
     counterfactual of never checkpointing. *)
  let module WS = Engine.Wal_store in
  let module K = Engine.Checkpoint in
  let lengths = if smoke then [ 200; 400 ] else [ 500; 1000; 2000; 4000 ] in
  let recovery_runs = 5 in
  let rtable =
    T.create
      [ ("deltas", T.Right); ("full replay (ms)", T.Right);
        ("snap+tail (ms)", T.Right); ("chain+tail (ms)", T.Right);
        ("chooser", T.Left); ("speedup", T.Right);
        ("bit-identical", T.Left) ]
  in
  let recovery_sweep =
    List.map
      (fun deltas ->
        let inst, log = make_world ~num_streams ~num_users ~deltas 1600 in
        let policy = C.Every 100 in
        let every = max 1 (deltas / 10) in
        let crash_at = (deltas / 2) + (every / 2) in
        let replayed = List.filteri (fun i _ -> i < crash_at) log in
        let dir = Filename.temp_file "e16wal" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o755;
        let chain_path = Filename.concat dir "chain.ckpt" in
        let snap_path = Filename.temp_file "e16" ".eng" in
        let mono_path = Filename.temp_file "e16" ".wal" in
        W.write_file mono_path replayed;
        (* Segments must be shorter than the checkpoint interval or
           compaction can never retire one (the open segment is never
           deleted) and recovery re-parses the whole log. *)
        let store = WS.open_dir ~segment_records:(max 8 (every / 2)) dir in
        let ctrl = C.create ~policy inst in
        let writer = K.create_writer ~path:chain_path ctrl in
        List.iteri
          (fun i d ->
            ignore (WS.append_tee ~flush:false store d);
            K.note writer (C.apply ctrl d);
            if (i + 1) mod every = 0 then begin
              K.checkpoint writer ctrl;
              S.write_file snap_path ctrl;
              ignore (WS.compact store ~covered:(K.covered writer))
            end)
          replayed;
        WS.close store;
        K.close_writer writer;
        (* Each timed recovery starts from cold disk state and ends
           when the crash-point serving plan is reproduced — no final
           replan: the restored plan is already serving, and the
           identity check mid-epoch is the stronger one. Medians over
           [recovery_runs], major collection before each. *)
        let timed_median f =
          let walls = Array.make recovery_runs 0. in
          let out = ref None in
          for i = 0 to recovery_runs - 1 do
            Gc.full_major ();
            let r, w = time_it f in
            walls.(i) <- w;
            out := Some r
          done;
          Array.sort compare walls;
          (Option.get !out, walls.(recovery_runs / 2))
        in
        let recover_store () =
          match WS.recover_dir dir with
          | Ok r -> r
          | Error msg -> failwith msg
        in
        let store_tail c covered =
          let records = (recover_store ()).WS.records in
          List.iter
            (fun (seq, d) -> if seq > covered then ignore (C.apply c d))
            records;
          c
        in
        let reference, full_seconds =
          timed_median (fun () ->
              let records =
                match W.recover_file mono_path with
                | Ok r -> r.W.records
                | Error msg -> failwith msg
              in
              let c = C.create ~policy inst in
              List.iter (fun (_, d) -> ignore (C.apply c d)) records;
              c)
        in
        (* A snapshot is a chain of one full increment: one reader. *)
        let from_state path () =
          match K.recover ~path with
          | Ok r -> store_tail r.K.ctrl r.K.covered
          | Error msg -> failwith msg
        in
        let snap_restored, snap_seconds = timed_median (from_state snap_path) in
        let chain_restored, chain_seconds =
          timed_median (from_state chain_path)
        in
        (* The chooser column is the start a real restart takes: the
           same call the CLI makes, on the same disk state. *)
        let opened =
          match
            Engine.Recovery.open_ ~policy ~instance:inst ~snapshot:snap_path
              ~chain:chain_path ~total_records:crash_at
              ~first_seq:(recover_store ()).WS.first_seq ()
          with
          | Ok r -> r
          | Error msg -> failwith msg
        in
        let chosen_seconds =
          match opened.Engine.Recovery.choice with
          | Engine.Recovery.Chain_tail -> chain_seconds
          | Engine.Recovery.Snapshot_tail -> snap_seconds
          | Engine.Recovery.Full_replay -> full_seconds
        in
        let speedup =
          if chosen_seconds > 0. then full_seconds /. chosen_seconds else 0.
        in
        let same c =
          C.utility c = C.utility reference
          && Mmd.Io.assignment_to_string (C.plan c)
             = Mmd.Io.assignment_to_string (C.plan reference)
        in
        let bit_identical =
          same snap_restored && same chain_restored
          && same
               (store_tail opened.Engine.Recovery.state.ctrl
                  opened.Engine.Recovery.state.covered)
        in
        let chooser =
          Engine.Recovery.choice_to_string opened.Engine.Recovery.choice
        in
        T.add_row rtable
          [ T.cell_i deltas;
            Printf.sprintf "%.3f" (1000. *. full_seconds);
            Printf.sprintf "%.3f" (1000. *. snap_seconds);
            Printf.sprintf "%.3f" (1000. *. chain_seconds);
            chooser;
            Printf.sprintf "%.2fx" speedup;
            (if bit_identical then "yes" else "NO") ];
        Sys.remove mono_path;
        Sys.remove snap_path;
        if Sys.file_exists (S.previous_path snap_path) then
          Sys.remove (S.previous_path snap_path);
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Unix.rmdir dir;
        (deltas, crash_at, every, full_seconds, snap_seconds, chain_seconds,
         chooser, speedup, bit_identical))
      lengths
  in
  T.print rtable;
  let bit_identical =
    List.for_all (fun (_, _, _, _, _, _, _, _, id) -> id) recovery_sweep
  in
  let recovery_all_gt_1 =
    bit_identical
    && List.for_all
         (fun (_, _, _, _, _, _, _, speedup, _) -> speedup > 1.0)
         recovery_sweep
  in
  Printf.printf
    "recovery beats cold replay at every length: %s\n%!"
    (if recovery_all_gt_1 then "yes" else "NO");

  let oc = open_out json_out in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"e16_resilience\",\n\
    \  \"smoke\": %b,\n\
    \  \"host\": %s,\n\
    \  \"instance\": { \"num_streams\": %d, \"num_users\": %d, \"m\": 2, \
     \"mc\": 1 },\n\
    \  \"deltas\": %d,\n\
    \  \"replicas\": %d,\n\
    \  \"fault_sweep\": [\n%s\n  ],\n\
    \  \"recovery_sweep\": [\n%s\n  ],\n\
    \  \"recovery_all_gt_1\": %b,\n\
    \  \"bit_identical\": %b\n\
     }\n"
    smoke (host_json ()) num_streams num_users deltas replicas
    (String.concat ",\n"
       (List.map
          (fun (count, ratio, recov, evict, mean_ttr, max_ttr, fb) ->
            Printf.sprintf
              "    { \"faults\": %d, \"utility_retained\": %.6f, \
               \"recoveries\": %d, \"evictions\": %d, \
               \"mean_ttr_seconds\": %.6f, \"max_ttr_seconds\": %.6f, \
               \"fallbacks\": %d }"
              count ratio recov evict mean_ttr max_ttr fb)
          sweep))
    (String.concat ",\n"
       (List.map
          (fun (d, crash_at, every, full_s, snap_s, chain_s, chooser, speedup,
                id) ->
            Printf.sprintf
              "    { \"deltas\": %d, \"crash_at\": %d, \
               \"checkpoint_every\": %d, \"full_replay_seconds\": %.6f, \
               \"snapshot_recovery_seconds\": %.6f, \
               \"chain_recovery_seconds\": %.6f, \"chooser\": \"%s\", \
               \"speedup\": %.3f, \"bit_identical\": %b }"
              d crash_at every full_s snap_s chain_s chooser speedup id)
          recovery_sweep))
    recovery_all_gt_1 bit_identical;
  close_out oc;
  Exp_common.check_json json_out;
  Printf.printf "results -> %s\n%!" json_out;
  if not bit_identical then exit 1
