(* E21 — socket-backed replication: real-network chaos, planned lease
   hand-over, and multi-process replica sets.

   1. Transport parity + overhead: the same churn log through a
      replica group over the in-process queue links and over real
      loopback sockets (length-prefixed CRC-framed wire format). Final
      state must be bit-identical across transports; the socket tax is
      reported from each transport's best of several warm, alternating
      runs.

   2. Network fault matrix: seeded eleven-kind schedules (drops, dups,
      reorders, holds, truncations, link partitions, resets, crashes,
      heartbeat partitions, planned hand-overs) against the socket
      transport; every surviving replica must match the unfaulted
      reference bit for bit.

   3. Hand-over sweep: planned lease failover at a walking boundary on
      both transports — zero lost deltas, zero replan divergence.

   4. Multi-process kill sweep: spawn real replica sets (one OS
      process per replica, Unix-domain sockets between them), SIGKILL
      the primary at a walking boundary — half the kills mid-frame,
      leaving a torn frame on every wire — and let the recovery
      coordinator re-ship the durable WAL tail. Divergent survivors
      are counted and must be 0.

   Results land in BENCH_socket.json; CI greps it for
   "matrix_divergence": 0, "handover_lost_deltas": 0,
   "handover_divergence": 0 and "proc_divergent_survivors": 0.
   VDMC_SMOKE=1 shrinks the sweeps; the invariants gate in both
   modes. *)

open Exp_common
module C = Engine.Controller
module F = Engine.Fault
module G = Replica.Group
module T' = Replica.Transport
module TS = Replica.Transport_socket

let json_out = "BENCH_socket.json"

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

let mk_queue _ = T'.queue_link ()
let mk_socket _ = TS.loopback ()

(* ----- multi-process plumbing ----- *)

let engine_exe = "_build/default/bin/mmd_engine.exe"

let run_engine args =
  let cmd = Filename.quote_command engine_exe args ^ " 2>&1" in
  let ic = Unix.open_process_in cmd in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (status, List.rev !lines)

(* "PROC-SUPERVISOR survivors=3 divergent=0 ..." -> Some 0 *)
let parse_divergent lines =
  List.fold_left
    (fun acc line ->
      match acc with
      | Some _ -> acc
      | None ->
          List.fold_left
            (fun acc tok ->
              match (acc, String.split_on_char '=' tok) with
              | None, [ "divergent"; n ] -> int_of_string_opt n
              | acc, _ -> acc)
            None
            (String.split_on_char ' ' line))
    None lines

let run () =
  let smoke = Sys.getenv_opt "VDMC_SMOKE" <> None in
  let num_streams = if smoke then 30 else 80 in
  let num_users = if smoke then 18 else 50 in
  let parity_deltas = if smoke then 400 else 2000 in
  let parity_repeats = if smoke then 3 else 7 in
  let matrix_runs = if smoke then 12 else 60 in
  let handover_runs = if smoke then 10 else 40 in
  let proc_kills = if smoke then 4 else 12 in
  let proc_deltas = if smoke then 120 else 300 in
  header "E21"
    (Printf.sprintf
       "socket replication: transport parity, network chaos, hand-over + \
        multi-process kills (n=%d)"
       num_streams);

  (* ----- 1. transport parity + overhead ----- *)
  let policy = C.Every 64 in
  let inst, log = make_world ~num_streams ~num_users ~deltas:parity_deltas 2100 in
  let run_with mk_link =
    let g = G.create ~policy ~mk_link ~replicas:2 inst in
    let (), seconds =
      time_it (fun () ->
          List.iter (fun d -> ignore (G.apply g d)) log;
          ignore (G.quiesce g))
    in
    (g, seconds)
  in
  (* One cold run per transport measures the host as much as the code,
     so the row is each transport's best of [parity_repeats] warm runs,
     queue and socket alternating, after one untimed pair. Every pair
     must end bit-identical. *)
  let run_pair () =
    let gq, queue_s = run_with mk_queue in
    let gs, socket_s = run_with mk_socket in
    let parity = bit_identical (G.primary gq) (G.primary gs) in
    G.close gq;
    G.close gs;
    (parity, queue_s, socket_s)
  in
  let warm_parity, _, _ = run_pair () in
  let pairs = List.init parity_repeats (fun _ -> run_pair ()) in
  let parity = warm_parity && List.for_all (fun (p, _, _) -> p) pairs in
  let best f = List.fold_left (fun acc r -> Float.min acc (f r)) infinity pairs in
  let queue_s = best (fun (_, q, _) -> q) in
  let socket_s = best (fun (_, _, s) -> s) in
  let reconnects = TS.reconnects_total () in
  Printf.printf
    "  parity: %d deltas, best of %d — queue %.0f deltas/s, socket %.0f \
     deltas/s (%.1fx tax), bit-identical: %s\n%!"
    parity_deltas parity_repeats
    (float parity_deltas /. queue_s)
    (float parity_deltas /. socket_s)
    (socket_s /. queue_s)
    (if parity then "yes" else "NO");

  (* ----- 2. network fault matrix over sockets ----- *)
  let policies = [ C.Every 8; C.Every 32; C.Drift 0.05; C.Manual ] in
  let matrix_divergence = ref 0 and matrix_faults = ref 0 in
  let (), matrix_seconds =
    time_it (fun () ->
        for run = 1 to matrix_runs do
          let policy = List.nth policies (run mod List.length policies) in
          let inst, log =
            make_world ~num_streams:20 ~num_users:12 ~deltas:100 (2100 + run)
          in
          let rng = Prelude.Rng.create ((run * 13) + 7) in
          let schedule =
            F.generate_network ~rng ~deltas:(List.length log) ~replicas:2
              ~count:6
          in
          matrix_faults := !matrix_faults + List.length schedule;
          let g = G.create ~policy ~mk_link:mk_socket ~replicas:2 inst in
          Replica.Chaos.run g ~log ~schedule;
          let reference = Replica.Chaos.reference ~policy inst ~log ~schedule in
          let ok =
            bit_identical (G.primary g) reference
            && List.for_all
                 (fun id ->
                   match G.follower_ctrl g id with
                   | Some ctrl -> bit_identical ctrl reference
                   | None -> false)
                 (G.live_followers g)
          in
          if not ok then incr matrix_divergence;
          G.close g
        done)
  in
  Printf.printf
    "  network matrix: %d runs, %d faults injected over real sockets, %d \
     divergent, %.1fs\n%!"
    matrix_runs !matrix_faults !matrix_divergence matrix_seconds;

  (* ----- 3. planned hand-over sweep ----- *)
  let handover_lost = ref 0
  and handover_divergence = ref 0
  and handovers_done = ref 0 in
  let (), handover_seconds =
    time_it (fun () ->
        List.iter
          (fun (tname, mk_link) ->
            for run = 1 to handover_runs do
              let policy = List.nth policies (run mod List.length policies) in
              let inst, log =
                make_world ~num_streams:20 ~num_users:12 ~deltas:100
                  (2200 + run)
              in
              let n = List.length log in
              let cut = 1 + (run * 17 mod (n - 1)) in
              let g = G.create ~policy ~mk_link ~replicas:2 inst in
              List.iteri
                (fun i d ->
                  ignore (G.apply g d);
                  if i + 1 = cut then begin
                    let before = G.last_seq g in
                    (match G.hand_over g with
                    | Ok _ -> incr handovers_done
                    | Error msg ->
                        failwith
                          (Printf.sprintf "E21 hand-over (%s): %s" tname msg));
                    if G.last_seq g <> before then incr handover_lost
                  end)
                log;
              ignore (G.quiesce g);
              let reference = C.create ~policy inst in
              C.apply_all reference log;
              if
                not
                  (bit_identical (G.primary g) reference
                  &&
                  match G.follower_ctrl g 0 with
                  | Some ctrl -> bit_identical ctrl reference
                  | None -> false)
              then incr handover_divergence;
              G.close g
            done)
          [ ("queue", mk_queue); ("socket", mk_socket) ])
  in
  Printf.printf
    "  hand-over sweep: %d lease hand-overs (both transports), %d lost \
     deltas, %d divergent, %.1fs\n%!"
    !handovers_done !handover_lost !handover_divergence handover_seconds;

  (* ----- 4. multi-process kill sweep ----- *)
  let inst_path = Filename.temp_file "e21" ".mmd" in
  let inst, _ = make_world ~num_streams:20 ~num_users:12 ~deltas:1 2300 in
  Mmd.Io.write_file inst_path inst;
  let proc_divergent = ref 0 and proc_failures = ref 0 in
  let proc_rows = ref [] in
  let (), proc_seconds =
    time_it (fun () ->
        for k = 1 to proc_kills do
          let kill_at = 1 + (k * 53 mod (proc_deltas - 1)) in
          let mid_frame = k mod 2 = 0 in
          let args =
            [ inst_path; "--gen-deltas"; string_of_int proc_deltas; "--seed";
              string_of_int (2300 + k); "--replica-supervise"; "3";
              "--heartbeat-every"; "4"; "--replica-kill-at";
              string_of_int kill_at ]
            @ (if mid_frame then [ "--replica-kill-mid-frame" ] else [])
          in
          let status, lines = run_engine args in
          let divergent = parse_divergent lines in
          (match (status, divergent) with
          | Unix.WEXITED 0, Some d -> proc_divergent := !proc_divergent + d
          | _ ->
              incr proc_failures;
              List.iter (fun l -> Printf.printf "    | %s\n" l) lines);
          Printf.printf
            "  proc kill %2d/%d: boundary %3d%s -> %s, divergent %s\n%!" k
            proc_kills kill_at
            (if mid_frame then " (mid-frame)" else "")
            (match status with
            | Unix.WEXITED c -> Printf.sprintf "exit %d" c
            | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
            | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s)
            (match divergent with Some d -> string_of_int d | None -> "?");
          proc_rows := (kill_at, mid_frame, divergent) :: !proc_rows
        done)
  in
  Sys.remove inst_path;
  Printf.printf
    "  multi-process sweep: %d real SIGKILLs (3-replica sets), %d divergent \
     survivors, %d harness failures, %.1fs\n%!"
    proc_kills !proc_divergent !proc_failures proc_seconds;

  (* ----- JSON ----- *)
  let oc = open_out json_out in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"e21_socket\",\n\
    \  \"smoke\": %b,\n\
    \  \"host\": %s,\n\
    \  \"instance\": { \"num_streams\": %d, \"num_users\": %d, \"m\": 2, \
     \"mc\": 1 },\n\
    \  \"parity\": { \"deltas\": %d, \"repeats\": %d, \"queue_seconds\": %.6f, \
     \"socket_seconds\": %.6f, \"socket_tax\": %.3f, \"bit_identical\": %b, \
     \"reconnects\": %d },\n\
    \  \"network_matrix\": { \"runs\": %d, \"faults\": %d, \"seconds\": \
     %.3f },\n\
    \  \"matrix_divergence\": %d,\n\
    \  \"handover\": { \"handovers\": %d, \"seconds\": %.3f },\n\
    \  \"handover_lost_deltas\": %d,\n\
    \  \"handover_divergence\": %d,\n\
    \  \"proc_sweep\": { \"kills\": %d, \"replicas\": 3, \"deltas_per_run\": \
     %d, \"harness_failures\": %d, \"seconds\": %.3f, \"rows\": [\n%s\n  ] },\n\
    \  \"proc_divergent_survivors\": %d\n\
     }\n"
    smoke (host_json ()) num_streams num_users parity_deltas parity_repeats
    queue_s socket_s
    (socket_s /. queue_s) parity reconnects matrix_runs !matrix_faults
    matrix_seconds !matrix_divergence !handovers_done handover_seconds
    !handover_lost !handover_divergence proc_kills proc_deltas !proc_failures
    proc_seconds
    (String.concat ",\n"
       (List.rev_map
          (fun (kill_at, mid, div) ->
            Printf.sprintf
              "    { \"kill_at\": %d, \"mid_frame\": %b, \"divergent\": %s }"
              kill_at mid
              (match div with Some d -> string_of_int d | None -> "null"))
          !proc_rows))
    !proc_divergent;
  close_out oc;
  Exp_common.check_json json_out;
  Printf.printf "results -> %s\n%!" json_out;
  if
    (not parity) || !matrix_divergence > 0 || !handover_lost > 0
    || !handover_divergence > 0 || !proc_divergent > 0 || !proc_failures > 0
  then exit 1
