(* E19 — replicated control plane: failover time vs cold recovery, and
   replication divergence under seeded primary crashes.

   1. Time-to-repair: after a primary death, a replica group promotes
      the most-caught-up follower — it drains its link and replays a
      tail bounded by the heartbeat window. A cold standby instead
      rebuilds from the durable WAL: controller from the instance plus
      a full replay of every record. Failover TTR should be roughly
      flat in the log length while cold replay grows linearly, and must
      beat it at every measured length.

   2. Divergence: across a seed sweep (seeds x kill boundaries x epoch
      policies), kill the primary at an arbitrary record boundary and
      let the heartbeat detector promote. The promoted follower's plan
      bytes, utility bits, planner float accumulators and counter
      fields must equal the unkilled run's — divergence is counted and
      must be 0.

   3. Recovery-path choice: the startup chooser's estimates on a real
      snapshot at several tail lengths, with the selected path.

   Results land in BENCH_replication.json; CI greps it for
   "divergence": 0 and "ttr_beats_cold": true. VDMC_SMOKE=1 shrinks
   the sweep; the invariants gate in both modes. *)

open Exp_common
module C = Engine.Controller
module F = Engine.Fault
module G = Replica.Group

let json_out = "BENCH_replication.json"

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

(* The whole surface the replica digest hashes, compared exactly. *)
let bit_identical a b = Replica.Proc.surface a = Replica.Proc.surface b

let run () =
  let smoke = Sys.getenv_opt "VDMC_SMOKE" <> None in
  let num_streams = if smoke then 40 else 120 in
  let num_users = if smoke then 25 else 80 in
  let lengths = if smoke then [ 200; 400 ] else [ 500; 1000; 2000; 4000 ] in
  let sweep_seeds = if smoke then 24 else 120 in
  header "E19"
    (Printf.sprintf
       "replication: failover TTR vs cold replay + divergence sweep (n=%d, \
        %d seeds)"
       num_streams sweep_seeds);

  (* ----- failover TTR vs cold WAL replay ----- *)
  let policy = C.Every 100 in
  let table =
    T.create
      [ ("log length", T.Right); ("cold replay (ms)", T.Right);
        ("failover TTR (ms)", T.Right); ("speedup", T.Right);
        ("follower lag at kill", T.Right) ]
  in
  let ttr_rows =
    List.map
      (fun len ->
        let inst, log = make_world ~num_streams ~num_users ~deltas:len 1900 in
        (* Die mid-heartbeat-window, so promotion has a real in-flight
           tail to drain and replay (not an already-converged group). *)
        let applied = len - 3 in
        let prefix = List.filteri (fun i _ -> i < applied) log in
        (* Cold standby: rebuild a serving controller from the durable
           log — instance load + full replay. *)
        let (), cold =
          time_it (fun () ->
              let ctrl = C.create ~policy inst in
              C.apply_all ctrl prefix)
        in
        let g = G.create ~policy ~replicas:2 inst in
        List.iter (fun d -> ignore (G.apply g d)) prefix;
        let lag_at_kill =
          List.fold_left
            (fun acc id -> max acc (Option.value ~default:0 (G.lag g id)))
            0 (G.live_followers g)
        in
        G.kill_primary g;
        let promoted = G.fail_over g in
        let ttr = G.last_promote_seconds g in
        if not promoted then failwith "E19: no live follower to promote";
        Printf.printf
          "  %5d records: cold %.3fms, failover %.4fms (%.0fx), lag %d\n%!"
          len (1000. *. cold) (1000. *. ttr)
          (if ttr > 0. then cold /. ttr else 0.)
          lag_at_kill;
        T.add_row table
          [ T.cell_i len;
            Printf.sprintf "%.3f" (1000. *. cold);
            Printf.sprintf "%.4f" (1000. *. ttr);
            Printf.sprintf "%.0fx" (if ttr > 0. then cold /. ttr else 0.);
            T.cell_i lag_at_kill ];
        (len, cold, ttr, lag_at_kill))
      lengths
  in
  T.print table;
  let ttr_beats_cold =
    List.for_all (fun (_, cold, ttr, _) -> ttr < cold) ttr_rows
  in
  Printf.printf "failover beats cold replay at every length: %s\n%!"
    (if ttr_beats_cold then "yes" else "NO");

  (* ----- divergence sweep: seeded primary kills ----- *)
  let policies =
    [ C.Every 8; C.Every 32; C.Drift 0.05; C.Manual ]
  in
  let sweep_deltas = if smoke then 120 else 200 in
  let divergence = ref 0 and runs = ref 0 and failovers = ref 0 in
  let (), sweep_seconds =
    time_it (fun () ->
        for seed = 1 to sweep_seeds do
          List.iter
            (fun policy ->
              let inst, log =
                make_world ~num_streams:20 ~num_users:12
                  ~deltas:sweep_deltas (1900 + seed)
              in
              let n = List.length log in
              (* Kill boundary walks the whole log across seeds. *)
              let kill = 1 + (seed * 37 mod (n - 1)) in
              let g = G.create ~policy ~replicas:2 inst in
              List.iteri
                (fun i d ->
                  if i = kill then begin
                    G.kill_primary g;
                    G.ensure_promoted g
                  end;
                  ignore (G.apply g d))
                log;
              ignore (G.quiesce g);
              let reference = C.create ~policy inst in
              C.apply_all reference log;
              incr runs;
              failovers := !failovers + G.failovers g;
              if not (bit_identical (G.primary g) reference) then
                incr divergence)
            policies
        done)
  in
  Printf.printf
    "divergence sweep: %d runs (%d seeds x %d policies), %d failovers, %d \
     divergent, %.1fs\n\
     %!"
    !runs sweep_seeds (List.length policies) !failovers !divergence
    sweep_seconds;

  (* ----- recovery-path chooser on a real snapshot ----- *)
  let inst, log = make_world ~num_streams ~num_users ~deltas:1000 1901 in
  let snap_path = Filename.temp_file "e19" ".eng" in
  let covered = 800 in
  let ctrl = C.create ~policy inst in
  List.iteri (fun i d -> if i < covered then ignore (C.apply ctrl d)) log;
  Engine.Snapshot.write_file snap_path ctrl;
  let chooser_rows =
    List.map
      (fun total ->
        let module R = Engine.Recovery in
        let r =
          match
            R.open_ ~instance:inst ~snapshot:snap_path ~total_records:total
              ~first_seq:1 ()
          with
          | Ok r -> r
          | Error msg -> failwith msg
        in
        let seconds c = Option.get (List.assoc c r.R.paths) in
        let ((choice, snap, replay) as row) =
          (R.choice_to_string r.R.choice, seconds R.Snapshot_tail,
           seconds R.Full_replay)
        in
        Printf.printf
          "  chooser: %d total records (tail %d) -> %s (snap %.4gs vs \
           replay %.4gs)\n\
           %!"
          total
          (max 0 (total - covered))
          choice snap replay;
        (total, row))
      [ covered + 10; covered * 50 ]
  in
  ignore log;
  Sys.remove snap_path;
  if Sys.file_exists (Engine.Snapshot.previous_path snap_path) then
    Sys.remove (Engine.Snapshot.previous_path snap_path);

  let oc = open_out json_out in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"e19_replication\",\n\
    \  \"smoke\": %b,\n\
    \  \"host\": %s,\n\
    \  \"instance\": { \"num_streams\": %d, \"num_users\": %d, \"m\": 2, \
     \"mc\": 1 },\n\
    \  \"failover\": [\n%s\n  ],\n\
    \  \"ttr_beats_cold\": %b,\n\
    \  \"divergence_sweep\": { \"seeds\": %d, \"policies\": %d, \"runs\": \
     %d, \"deltas_per_run\": %d, \"failovers\": %d, \"seconds\": %.3f },\n\
    \  \"divergence\": %d,\n\
    \  \"recovery_chooser\": [\n%s\n  ]\n\
     }\n"
    smoke (host_json ()) num_streams num_users
    (String.concat ",\n"
       (List.map
          (fun (len, cold, ttr, lag) ->
            Printf.sprintf
              "    { \"records\": %d, \"cold_replay_seconds\": %.6f, \
               \"failover_ttr_seconds\": %.6f, \"speedup\": %.1f, \
               \"lag_at_kill\": %d }"
              len cold ttr
              (if ttr > 0. then cold /. ttr else 0.)
              lag)
          ttr_rows))
    ttr_beats_cold sweep_seeds (List.length policies) !runs sweep_deltas
    !failovers sweep_seconds !divergence
    (String.concat ",\n"
       (List.map
          (fun (total, (choice, snap, replay)) ->
            Printf.sprintf
              "    { \"total_records\": %d, \"choice\": \"%s\", \
               \"snapshot_seconds\": %.6g, \"replay_seconds\": %.6g }"
              total choice snap replay)
          chooser_rows));
  close_out oc;
  Exp_common.check_json json_out;
  Printf.printf "results -> %s\n%!" json_out;
  if !divergence > 0 || not ttr_beats_cold then exit 1
