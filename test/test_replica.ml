(* Replicated control plane: WAL shipping keeps followers bit-identical
   to the primary at every acked seq, heartbeat failover promotes the
   most-caught-up follower with zero divergence from an unkilled run,
   and every replication fault kind heals invisibly — only the fault
   counters may show it happened. *)

open Helpers
module D = Engine.Delta
module V = Engine.View
module C = Engine.Controller
module W = Engine.Wal
module F = Engine.Fault
module G = Replica.Group
module T = Replica.Transport
module Chaos = Replica.Chaos

(* Shard count for the router-composition property; CI re-runs the
   suite with VDMC_SHARDS=1/4. *)
let env_shards =
  match Sys.getenv_opt "VDMC_SHARDS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 2)
  | None -> 2

let world seed =
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
      { Engine.Churn.default with deltas = 100 }
  in
  (inst, log)

let plan_text ctrl = Mmd.Io.assignment_to_string (C.plan ctrl)

(* The full bit-identity surface: plan bytes, utility bits, planner
   float accumulators, counter ints. *)
let bit_identical a b =
  C.utility a = C.utility b
  && plan_text a = plan_text b
  && Engine.Planner.float_state (C.planner a)
     = Engine.Planner.float_state (C.planner b)
  && Engine.Counters.fields (C.counters a)
     = Engine.Counters.fields (C.counters b)
  && Engine.Counters.resilience_fields (C.counters a)
     = Engine.Counters.resilience_fields (C.counters b)
  && C.deltas_applied a = C.deltas_applied b
  && C.since_replan a = C.since_replan b

let policies = [ C.Every 8; C.Every 32; C.Drift 0.05; C.Manual ]

(* ---------- Frame codec ---------- *)

let test_frame_roundtrip () =
  let cases =
    [ G.Frame.Data { term = 0; record = W.record_to_string ~seq:1 (D.User_leave 3) };
      G.Frame.Shock { term = 7; record = W.record_to_string ~seq:42 (D.Budget_resize [| 1.5; infinity |]) };
      G.Frame.Heartbeat { term = 3; last_seq = 99; tick = 1234 } ]
  in
  List.iter
    (fun fr ->
      match G.Frame.of_string (G.Frame.to_string fr) with
      | Ok fr' -> check_bool "frame round-trip" true (fr = fr')
      | Error msg -> Alcotest.fail msg)
    cases;
  (match G.Frame.of_string "X 1 whatever" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown tag accepted");
  match G.Frame.of_string "H 1 nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad heartbeat accepted"

(* ---------- Transport faults ---------- *)

let test_transport_faults () =
  let t = T.create () in
  let l = T.link_of t in
  T.send t "a";
  T.send t "b";
  check_bool "fifo order" true (T.drain l = [ "a"; "b" ]);
  T.arm t T.Drop;
  T.send t "lost";
  T.send t "kept";
  check_bool "drop" true (T.drain l = [ "kept" ]);
  T.arm t T.Duplicate;
  T.send t "twice";
  check_bool "duplicate" true (T.drain l = [ "twice"; "twice" ]);
  T.arm t T.Reorder;
  T.send t "first";
  T.send t "second";
  check_bool "reorder swaps" true (T.drain l = [ "second"; "first" ]);
  T.arm t T.Reorder;
  T.send t "held";
  check_bool "held frame released when queue empties" true
    (T.drain l = [ "held" ]);
  T.arm t T.Truncate;
  T.send t "0123456789";
  check_bool "truncate halves" true (T.drain l = [ "01234" ]);
  (* Hold n: the held frame is overtaken by exactly n further sends. *)
  T.arm t (T.Hold 2);
  T.send t "late";
  T.send t "x";
  T.send t "y";
  T.send t "z";
  check_bool "hold 2 delays past two sends" true
    (T.drain l = [ "x"; "y"; "late"; "z" ]);
  T.arm t (T.Hold 5);
  T.send t "lone";
  check_bool "held frame released on idle" true (T.drain l = [ "lone" ]);
  (* Partition n: everything buffers for n further sends, then
     releases in order — delay, not loss. *)
  T.arm t (T.Partition 2);
  T.send t "p1";
  T.send t "p2";
  check_int "open partition buffers, delivers nothing" 2 (T.pending t);
  T.send t "p3";
  check_bool "partition releases in order after n sends" true
    (T.drain l = [ "p1"; "p2"; "p3" ]);
  T.send t "p4";
  check_bool "post-partition frame flows" true (T.drain l = [ "p4" ]);
  T.arm t (T.Partition 10);
  T.send t "q1";
  T.send t "q2";
  check_bool "idle heals an open partition in order" true
    (T.drain l = [ "q1"; "q2" ]);
  (* Reset: the trigger and everything in flight are lost. *)
  T.send t "pre";
  T.arm t T.Reset;
  T.send t "trigger";
  check_bool "reset loses everything in flight" true (T.drain l = []);
  T.send t "after";
  check_bool "link usable after reset" true (T.drain l = [ "after" ]);
  let s = T.stats t in
  check_int "drops" 1 s.T.drops;
  check_int "dups" 1 s.T.dups;
  check_int "reorders" 2 s.T.reorders;
  check_int "truncations" 1 s.T.truncations;
  check_int "holds" 2 s.T.holds;
  check_int "partitions" 2 s.T.partitions;
  check_int "resets" 1 s.T.resets

(* ---------- Basic replication ---------- *)

let test_followers_bit_identical () =
  let inst, log = world 11 in
  let g = G.create ~policy:(C.Every 8) ~replicas:2 inst in
  List.iter (fun d -> ignore (G.apply g d)) log;
  check_bool "quiesce converges" true (G.quiesce g);
  let reference = C.create ~policy:(C.Every 8) inst in
  C.apply_all reference log;
  check_bool "primary matches unreplicated run" true
    (bit_identical (G.primary g) reference);
  List.iter
    (fun id ->
      check_bool
        (Printf.sprintf "follower %d acked everything" id)
        true
        (G.acked g id = Some (G.last_seq g));
      match G.follower_ctrl g id with
      | Some ctrl ->
          check_bool
            (Printf.sprintf "follower %d bit-identical" id)
            true (bit_identical ctrl reference)
      | None -> Alcotest.fail "live follower has no controller")
    (G.live_followers g)

let test_follower_lag_is_real () =
  (* Before any heartbeat, followers have received nothing: delivery
     is batched at heartbeat boundaries, so lag is visible. *)
  let inst, log = world 12 in
  let g = G.create ~policy:C.Manual ~replicas:1 inst in
  let hb = G.default_config.heartbeat_every in
  List.iteri
    (fun i d ->
      if i < hb then begin
        (* The heartbeat fires inside the hb-th apply's tick and
           drains the backlog; just before it, the whole prefix is
           still in flight. *)
        if i = hb - 1 then
          check_int "lag before first heartbeat" (hb - 1)
            (match G.lag g 1 with Some l -> l | None -> -1);
        ignore (G.apply g d)
      end)
    log;
  check_int "lag after heartbeat" 0
    (match G.lag g 1 with Some l -> l | None -> -1)

(* ---------- Failover ---------- *)

let failover_prop (seed, cut_frac, policy) =
  let inst, log = world seed in
  let n = List.length log in
  let k = max 1 (min (n - 1) (int_of_float (cut_frac *. float n))) in
  let g = G.create ~policy ~replicas:2 inst in
  List.iteri
    (fun i d ->
      ignore (G.apply g d);
      if i + 1 = k then begin
        G.kill_primary g;
        G.ensure_promoted g
      end)
    log;
  check_bool "quiesce" true (G.quiesce g);
  let reference = C.create ~policy inst in
  C.apply_all reference log;
  G.failovers g = 1
  && G.primary_id g > 0
  && G.term g = 1
  && bit_identical (G.primary g) reference

let qcheck_failover =
  qtest ~count:40 "primary kill at any boundary: promoted run bit-identical"
    QCheck2.Gen.(
      triple (int_range 1 10_000) (float_range 0.01 0.99) (oneofl policies))
    failover_prop

let test_failover_regressions () =
  List.iter
    (fun (seed, cut, policy, what) ->
      check_bool what true (failover_prop (seed, cut, policy)))
    [ (1, 0.5, C.Every 8, "seed 1, cut 0.5, every:8");
      (42, 0.05, C.Drift 0.05, "seed 42, cut 0.05, drift");
      (7, 0.95, C.Manual, "seed 7, cut 0.95, manual");
      (9, 0.33, C.Every 32, "seed 9, cut 0.33, every:32") ]

let test_promotes_most_caught_up () =
  (* Starve follower 2 with repeated frame drops; on failover the
     promoted id must be follower 1 (more caught up), and the final
     state must still match the reference. *)
  let inst, log = world 21 in
  let g = G.create ~policy:C.Manual ~replicas:2 inst in
  List.iteri
    (fun i d ->
      if i mod 2 = 0 then ignore (G.inject g ~follower:2 T.Drop);
      ignore (G.apply g d);
      if i = 50 then begin
        G.kill_primary g;
        G.ensure_promoted g
      end)
    log;
  check_bool "quiesce" true (G.quiesce g);
  check_int "promoted the caught-up follower" 1 (G.primary_id g);
  let reference = C.create ~policy:C.Manual inst in
  C.apply_all reference log;
  check_bool "still bit-identical" true (bit_identical (G.primary g) reference)

(* ---------- Replication fault matrix (functorized over transport) --- *)

(* The protocol-level suite is written once against the abstract
   {!Transport.link} surface and instantiated per backend: the
   in-process queue here, the socket loopback in Test_replica_socket.
   Both backends must pass the identical matrix. *)
module type BACKEND = sig
  val name : string
  val mk_link : int -> T.link

  val count : int
  (** qcheck cases per property — sockets are dearer than queues. *)
end

module Protocol_matrix (B : BACKEND) = struct
  let wrap what = Printf.sprintf "%s [%s]" what B.name

  let with_group ~policy ~replicas inst f =
    let g = G.create ~mk_link:B.mk_link ~policy ~replicas inst in
    Fun.protect ~finally:(fun () -> G.close g) (fun () -> f g)

  (* For each fault in the schedule: run chaos, then every surviving
     replica (promoted primary and live followers) must be
     bit-identical to the reference run of the same log + shocks. *)
  let fault_matrix_prop ~generate (seed, policy) =
    let inst, log = world seed in
    let rng = Prelude.Rng.create ((seed * 7) + 1) in
    let schedule =
      generate ~rng ~deltas:(List.length log) ~replicas:2 ~count:6
    in
    with_group ~policy ~replicas:2 inst (fun g ->
        Chaos.run g ~log ~schedule;
        let reference = Chaos.reference ~policy inst ~log ~schedule in
        bit_identical (G.primary g) reference
        && List.for_all
             (fun id ->
               match G.follower_ctrl g id with
               | Some ctrl -> bit_identical ctrl reference
               | None -> false)
             (G.live_followers g))

  let qcheck_fault_matrix =
    qtest ~count:B.count
      (wrap "replication fault matrix: every survivor bit-identical")
      QCheck2.Gen.(pair (int_range 1 10_000) (oneofl policies))
      (fault_matrix_prop ~generate:F.generate_replication)

  let qcheck_network_matrix =
    qtest ~count:B.count
      (wrap "network fault matrix: every survivor bit-identical")
      QCheck2.Gen.(pair (int_range 1 10_000) (oneofl policies))
      (fault_matrix_prop ~generate:F.generate_network)

  let test_each_fault_kind_heals () =
    let inst, log = world 31 in
    List.iter
      (fun kind ->
        let schedule = [ { F.at = 20; kind }; { F.at = 55; kind } ] in
        with_group ~policy:(C.Every 16) ~replicas:2 inst (fun g ->
            Chaos.run g ~log ~schedule;
            let reference =
              Chaos.reference ~policy:(C.Every 16) inst ~log ~schedule
            in
            check_bool
              (wrap (Printf.sprintf "%s heals" (F.kind_to_string kind)))
              true
              (bit_identical (G.primary g) reference)))
      [ F.Drop_frame 1; F.Dup_frame 1; F.Reorder_frames 2; F.Truncate_frame 2;
        F.Hold_frames (1, 4); F.Link_partition (2, 8); F.Link_reset 1;
        F.Hand_over; F.Follower_crash 1; F.Primary_crash;
        F.Heartbeat_partition 10; F.Heartbeat_partition 500 ]

  (* ---------- Planned lease hand-over ---------- *)

  let test_hand_over_mid_run () =
    let inst, log = world 41 in
    with_group ~policy:(C.Every 8) ~replicas:2 inst (fun g ->
        List.iteri
          (fun i d ->
            ignore (G.apply g d);
            if i = 49 then begin
              let before = G.last_seq g in
              match G.hand_over g with
              | Ok id ->
                  check_bool (wrap "promoted a follower") true (id > 0);
                  check_int (wrap "zero deltas lost") before (G.last_seq g);
                  check_int (wrap "primary flipped") id (G.primary_id g);
                  check_int (wrap "term bumped") 1 (G.term g);
                  check_int (wrap "not a crash failover") 0 (G.failovers g);
                  check_int (wrap "one hand-over") 1 (G.handovers g)
              | Error m -> Alcotest.fail m
            end)
          log;
        check_bool (wrap "quiesce") true (G.quiesce g);
        let reference = C.create ~policy:(C.Every 8) inst in
        C.apply_all reference log;
        check_bool
          (wrap "bit-identical after hand-over")
          true
          (bit_identical (G.primary g) reference);
        (* The demoted primary serves on as follower 0, fully caught
           up — no replica left the set. *)
        match G.follower_ctrl g 0 with
        | Some ctrl ->
            check_bool
              (wrap "demoted primary caught up")
              true (bit_identical ctrl reference)
        | None -> Alcotest.fail "demoted primary not in the group")

  let test_hand_over_designated () =
    let inst, log = world 42 in
    with_group ~policy:C.Manual ~replicas:3 inst (fun g ->
        List.iteri
          (fun i d ->
            ignore (G.apply g d);
            if i = 30 then
              match G.hand_over ~to_:2 g with
              | Ok id -> check_int (wrap "designated successor") 2 id
              | Error m -> Alcotest.fail m)
          log;
        check_bool (wrap "quiesce") true (G.quiesce g);
        check_int (wrap "primary is the designee") 2 (G.primary_id g);
        let reference = C.create ~policy:C.Manual inst in
        C.apply_all reference log;
        check_bool (wrap "bit-identical") true
          (bit_identical (G.primary g) reference))

  let test_hand_over_refusals () =
    let inst, log = world 43 in
    with_group ~policy:C.Manual ~replicas:2 inst (fun g ->
        List.iteri (fun i d -> if i < 20 then ignore (G.apply g d)) log;
        (match G.hand_over ~to_:7 g with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "unknown successor accepted");
        (match G.hand_over ~to_:0 g with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "hand-over to the sitting primary accepted");
        ignore (G.crash_follower g 1);
        (match G.hand_over ~to_:1 g with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "dead successor accepted");
        ignore (G.crash_follower g 2);
        (match G.hand_over g with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "lease granted with no live follower");
        check_int (wrap "primary unchanged") 0 (G.primary_id g);
        check_int (wrap "term unchanged") 0 (G.term g);
        check_int (wrap "no hand-over recorded") 0 (G.handovers g);
        (* Every refusal is invisible: the primary keeps serving. *)
        List.iteri (fun i d -> if i >= 20 then ignore (G.apply g d)) log;
        let reference = C.create ~policy:C.Manual inst in
        C.apply_all reference log;
        check_bool (wrap "primary kept serving") true
          (bit_identical (G.primary g) reference))

  let hand_over_prop (seed, cut_frac, policy) =
    let inst, log = world seed in
    let n = List.length log in
    let k = max 1 (min (n - 1) (int_of_float (cut_frac *. float n))) in
    with_group ~policy ~replicas:2 inst (fun g ->
        let lost = ref false in
        List.iteri
          (fun i d ->
            ignore (G.apply g d);
            if i + 1 = k then begin
              let before = G.last_seq g in
              (match G.hand_over g with
              | Ok _ -> ()
              | Error m -> Alcotest.fail m);
              if G.last_seq g <> before then lost := true
            end)
          log;
        let quiesced = G.quiesce g in
        let reference = C.create ~policy inst in
        C.apply_all reference log;
        quiesced && (not !lost) && G.handovers g = 1 && G.failovers g = 0
        && G.term g = 1 && G.primary_id g > 0
        && bit_identical (G.primary g) reference
        &&
        match G.follower_ctrl g 0 with
        | Some ctrl -> bit_identical ctrl reference
        | None -> false)

  let qcheck_hand_over =
    qtest ~count:B.count
      (wrap "hand-over at any boundary: zero lost, zero divergence")
      QCheck2.Gen.(
        triple (int_range 1 10_000) (float_range 0.01 0.99) (oneofl policies))
      hand_over_prop

  let suite =
    [ qcheck_fault_matrix;
      qcheck_network_matrix;
      Alcotest.test_case
        (wrap "each fault kind heals")
        `Quick test_each_fault_kind_heals;
      Alcotest.test_case (wrap "hand-over mid-run") `Quick
        test_hand_over_mid_run;
      Alcotest.test_case
        (wrap "hand-over designated successor")
        `Quick test_hand_over_designated;
      Alcotest.test_case (wrap "hand-over refusals") `Quick
        test_hand_over_refusals;
      qcheck_hand_over ]
end

module Queue_matrix = Protocol_matrix (struct
  let name = "queue"
  let mk_link _ = T.queue_link ()
  let count = 40
end)

let test_short_partition_rides_out () =
  let inst, log = world 32 in
  let g = G.create ~policy:C.Manual ~replicas:2 inst in
  let schedule = [ { F.at = 30; kind = F.Heartbeat_partition 10 } ] in
  Chaos.run g ~log ~schedule;
  check_int "no failover on a short partition" 0 (G.failovers g);
  check_int "primary kept" 0 (G.primary_id g)

let test_long_partition_promotes () =
  let inst, log = world 33 in
  let g = G.create ~policy:C.Manual ~replicas:2 inst in
  let schedule = [ { F.at = 30; kind = F.Heartbeat_partition 500 } ] in
  Chaos.run g ~log ~schedule;
  check_bool "long partition promoted" true (G.failovers g >= 1);
  check_bool "promoted a follower" true (G.primary_id g > 0);
  (* Split brain resolved: the run still matches the reference. *)
  let reference = Chaos.reference ~policy:C.Manual inst ~log ~schedule in
  check_bool "no divergence" true (bit_identical (G.primary g) reference)

let test_follower_crash_and_restart () =
  let inst, log = world 34 in
  let g = G.create ~policy:(C.Every 8) ~replicas:2 inst in
  List.iteri
    (fun i d ->
      ignore (G.apply g d);
      if i = 20 then check_bool "crash" true (G.crash_follower g 1);
      if i = 60 then check_bool "restart" true (G.restart_follower g 1))
    log;
  check_bool "quiesce" true (G.quiesce g);
  let reference = C.create ~policy:(C.Every 8) inst in
  C.apply_all reference log;
  match G.follower_ctrl g 1 with
  | Some ctrl ->
      check_bool "restarted follower rebuilt bit-identically" true
        (bit_identical ctrl reference)
  | None -> Alcotest.fail "restarted follower not live"

let test_shocks_replicate_through_absorb () =
  (* Shock frames must go through the followers' absorb_shock, so the
     fault counters match the primary's too (bit_identical covers
     resilience_fields). *)
  let inst, log = world 35 in
  let schedule =
    [ { F.at = 25; kind = F.Budget_shock 0.5 };
      { F.at = 60; kind = F.Stream_outage 3 } ]
  in
  let g = G.create ~policy:(C.Every 16) ~replicas:2 inst in
  Chaos.run g ~log ~schedule;
  let reference = Chaos.reference ~policy:(C.Every 16) inst ~log ~schedule in
  let f, _, _, _ =
    Engine.Counters.resilience_fields (C.counters reference)
  in
  check_int "reference saw the shocks" 2 f;
  List.iter
    (fun id ->
      match G.follower_ctrl g id with
      | Some ctrl ->
          check_bool "follower fault counters match" true
            (Engine.Counters.resilience_fields (C.counters ctrl)
            = Engine.Counters.resilience_fields (C.counters reference))
      | None -> ())
    (G.live_followers g);
  check_bool "primary matches" true (bit_identical (G.primary g) reference)

(* ---------- Router composition ---------- *)

let rack_map () =
  Shard.Shard_map.create
    ~tags:(Array.init env_shards (fun i -> Printf.sprintf "rack%d" (i mod 2)))
    ()

(* A router whose shards are replica groups, and the groups' handles
   in shard order: the router itself knows nothing of replication. *)
let replicated_router inst =
  let groups = ref [] in
  let build ~labels ?wal inst =
    let g = G.create ~policy:(C.Every 16) ~labels ?wal ~replicas:2 inst in
    groups := g :: !groups;
    G.node g
  in
  let router = Shard.Router.create ~build ~map:(rack_map ()) inst in
  (router, Array.of_list (List.rev !groups))

(* The replicated sharded run matches the unreplicated sharded run
   over the same deltas, shard for shard. *)
let check_matches_plain inst deltas router =
  let plain = Shard.Router.create ~policy:(C.Every 16) ~map:(rack_map ()) inst in
  List.iter (fun d -> ignore (Shard.Router.apply plain d)) deltas;
  check_float "utility matches plain sharded run"
    (Shard.Router.utility plain)
    (Shard.Router.utility router);
  for i = 0 to Shard.Router.num_shards router - 1 do
    check_bool
      (Printf.sprintf "shard %d controller bit-identical" i)
      true
      (bit_identical
         (Shard.Router.controller router i)
         (Shard.Router.controller plain i))
  done

let test_sharded_replication () =
  let inst, log = world 36 in
  let router, groups = replicated_router inst in
  List.iteri
    (fun i d ->
      ignore (Shard.Router.apply router d);
      if i = 40 then begin
        G.kill_primary groups.(0);
        check_bool "shard 0 fail over" true (G.fail_over groups.(0))
      end)
    log;
  check_bool "replicas converge" true
    (Array.for_all (fun g -> G.quiesce g) groups);
  check_int "one failover total" 1
    (Array.fold_left (fun n g -> n + G.failovers g) 0 groups);
  check_matches_plain inst log router

(* A primary killed inside a shard heals by promotion at the shard's
   next delta, with no fail-over call: a cost change broadcasts, so it
   reaches shard 0 right after the kill. *)
let test_sharded_kill_heals () =
  let inst, log = world 36 in
  let router, groups = replicated_router inst in
  let costs =
    Array.init (Mmd.Instance.m inst) (fun i ->
        0.5 *. Mmd.Instance.server_cost inst 0 i)
  in
  let deltas =
    List.filteri (fun i _ -> i <= 40) log
    @ (D.Stream_cost_change { stream = 0; costs }
      :: List.filteri (fun i _ -> i > 40) log)
  in
  List.iteri
    (fun i d ->
      if i = 41 then G.kill_primary groups.(0);
      ignore (Shard.Router.apply router d))
    deltas;
  check_int "shard 0 promoted" 1 (G.failovers groups.(0));
  check_matches_plain inst deltas router

(* ---------- Simnet replicated run ---------- *)

let test_simnet_run_replicated () =
  let inst = random_mmd ~seed:5 ~num_streams:15 ~num_users:8 ~m:2 ~mc:1 ~skew:1.0 in
  let stats =
    Simnet.Engine_driver.run_replicated
      ~rng:(Prelude.Rng.create 99)
      ~duration:300. ~replicas:2 ~kill_primary_at:150. inst
  in
  check_bool "failover happened" true (stats.Simnet.Engine_driver.failovers >= 1);
  check_bool "promoted a follower" true
    (stats.Simnet.Engine_driver.final_primary > 0);
  check_bool "followers converged" true
    (stats.Simnet.Engine_driver.min_follower_acked
    = stats.Simnet.Engine_driver.replicated_last_seq);
  check_bool "time to promote measured" true
    (stats.Simnet.Engine_driver.time_to_promote > 0.)

(* ---------- Lag metrics exported ---------- *)

let test_lag_visible_in_prometheus () =
  let inst, log = world 37 in
  let g = G.create ~policy:C.Manual ~labels:[ ("suite", "replica") ] ~replicas:1 inst in
  List.iter (fun d -> ignore (G.apply g d)) log;
  ignore (G.quiesce g);
  let text = Obs.Export.prometheus () in
  check_bool "lag records gauge exported" true
    (contains text "replica_follower_lag_records");
  check_bool "lag seconds gauge exported" true
    (contains text "replica_follower_lag_seconds");
  check_bool "replica label present" true (contains text "replica=\"1\"")

(* ---------- Streaming WAL recovery (satellite) ---------- *)

let damage_wal rng text =
  match Prelude.Rng.int rng 3 with
  | 0 -> F.corrupt_text ~rng text
  | 1 -> F.tear_text ~rng text
  | _ -> F.corrupt_text ~rng (F.tear_text ~rng text)

let recovery_equal (a : W.recovery) (b : W.recovery) =
  a.W.records = b.W.records
  && a.W.quarantined = b.W.quarantined
  && a.W.last_seq = b.W.last_seq
  && a.W.torn_tail = b.W.torn_tail

let streaming_recovery_prop seed =
  let _, log = world seed in
  (* Even seeds repeat the log past the channel reader's 64 KiB block,
     so records straddle block boundaries. *)
  let log = if seed mod 2 = 0 then List.concat (List.init 24 (fun _ -> log)) else log in
  let rng = Prelude.Rng.create (seed + 77) in
  let text = damage_wal rng (W.to_string log) in
  let path = Filename.temp_file "replica" ".wal" in
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  let from_file = W.recover_file path in
  Sys.remove path;
  match (W.recover_string text, from_file) with
  | Ok a, Ok b -> recovery_equal a b
  | Error ea, Error eb -> ea = eb
  | _ -> false

let qcheck_streaming_recovery =
  qtest ~count:60 "wal: recover_file ≡ recover_string on damaged logs"
    QCheck2.Gen.(int_range 1 10_000)
    streaming_recovery_prop

(* ---------- Aborted batches ---------- *)

(* Equal reports, wall-clock latency summaries aside ([compare], as
   an empty summary holds NaN). *)
let same_counts a b =
  let a = C.report a and b = C.report b in
  compare
    { a with
      Engine.Counters.replan_latency = b.Engine.Counters.replan_latency;
      recovery_latency = b.recovery_latency }
    b
  = 0

(* The third delta leaves a slot that never existed, so the batch dies
   after applying (and, replicated, shipping) its first two. Those two
   must be on disk without a further flush and counted as the
   one-at-a-time path counts them. *)
let test_aborted_batch_prefix () =
  let inst, log = world 11 in
  let batch = [ List.nth log 0; List.nth log 1; D.User_leave 9999 ] in
  let one_at_a_time = C.create inst in
  (try List.iter (fun d -> ignore (C.apply one_at_a_time d)) batch
   with Invalid_argument _ -> ());
  let raises f =
    match f () with
    | _ -> Alcotest.fail "the batch did not raise"
    | exception Invalid_argument _ -> ()
  in
  let ctrl = C.create inst in
  raises (fun () -> C.apply_batch ctrl batch);
  check_bool "controller counts the prefix" true (same_counts ctrl one_at_a_time);
  let path = Filename.temp_file "replica" ".wal" in
  Sys.remove path;
  let wal = W.append_file path in
  let g = G.create ~wal ~replicas:2 inst in
  raises (fun () -> G.apply_batch g batch);
  (match W.recover_file path with
  | Ok r -> check_int "the prefix is on disk" 2 (List.length r.W.records)
  | Error msg -> Alcotest.fail msg);
  check_bool "group counts the prefix" true (same_counts (G.primary g) one_at_a_time);
  W.close wal;
  G.close g;
  Sys.remove path

(* ---------- Recovery path chooser (satellite) ---------- *)

let test_recovery_chooser () =
  let open Engine.Recovery in
  let chosen ~total_records candidates =
    Option.map fst (choose ~total_records candidates)
  in
  (* A fresh snapshot covering almost everything: tail replay wins. *)
  check_bool "fresh snapshot -> snapshot path" true
    (chosen ~total_records:100_000
       [ (Snapshot_tail, 10_000, 99_000); (Full_replay, 0, 0) ]
    = Some Snapshot_tail);
  (* A stale snapshot covering almost nothing: the full replay is not
     worse, and the snapshot parse is pure overhead. *)
  check_bool "stale snapshot -> full replay" true
    (chosen ~total_records:1_000
       [ (Snapshot_tail, 50_000_000, 10); (Full_replay, 0, 0) ]
    = Some Full_replay);
  let inst, log = world 38 in
  let start snapshot total_records =
    match open_ ~instance:inst ~snapshot ~total_records ~first_seq:1 () with
    | Ok r -> r
    | Error msg -> Alcotest.fail msg
  in
  (* A missing file degrades to full replay. *)
  let missing = start "/nonexistent/snap.eng" 100 in
  check_bool "missing snapshot -> full replay" true (missing.choice = Full_replay);
  check_bool "missing snapshot priced n/a" true
    (List.assoc Snapshot_tail missing.paths = None);
  (* A real snapshot file is taken when the tail is short. *)
  let ctrl = C.create ~policy:C.Manual inst in
  C.apply_all ctrl log;
  let path = Filename.temp_file "replica" ".eng" in
  Engine.Snapshot.write_file path ctrl;
  check_bool "one increment covering deltas_applied" true
    (match Engine.Checkpoint.recover ~path with
    | Ok r -> r.covered = List.length log && r.increments = 1
    | Error _ -> false);
  let e = start path (List.length log + 5) in
  Sys.remove path;
  if Sys.file_exists (Engine.Snapshot.previous_path path) then
    Sys.remove (Engine.Snapshot.previous_path path);
  check_bool "fresh on-disk snapshot chosen" true (e.choice = Snapshot_tail);
  (* Each start records its choice in the restored counters. *)
  let paths r = Engine.Counters.recovery_paths (C.counters r.state.ctrl) in
  check_bool "paths recorded" true (paths e = (1, 0) && paths missing = (0, 1))

let suite =
  [ Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "transport faults" `Quick test_transport_faults;
    Alcotest.test_case "followers bit-identical" `Quick
      test_followers_bit_identical;
    Alcotest.test_case "follower lag is real" `Quick test_follower_lag_is_real;
    qcheck_failover;
    Alcotest.test_case "failover regressions" `Quick test_failover_regressions;
    Alcotest.test_case "promotes most caught-up" `Quick
      test_promotes_most_caught_up;
    Alcotest.test_case "short partition rides out" `Quick
      test_short_partition_rides_out;
    Alcotest.test_case "long partition promotes" `Quick
      test_long_partition_promotes;
    Alcotest.test_case "follower crash + restart" `Quick
      test_follower_crash_and_restart;
    Alcotest.test_case "shocks replicate through absorb" `Quick
      test_shocks_replicate_through_absorb;
    Alcotest.test_case "sharded replication" `Quick test_sharded_replication;
    Alcotest.test_case "sharded primary kill heals" `Quick
      test_sharded_kill_heals;
    Alcotest.test_case "simnet replicated run" `Quick
      test_simnet_run_replicated;
    Alcotest.test_case "lag visible in prometheus" `Quick
      test_lag_visible_in_prometheus;
    qcheck_streaming_recovery;
    Alcotest.test_case "aborted batch keeps its prefix" `Quick
      test_aborted_batch_prefix;
    Alcotest.test_case "recovery path chooser" `Quick test_recovery_chooser ]
  @ Queue_matrix.suite
