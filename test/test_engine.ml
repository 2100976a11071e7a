open Helpers
module D = Engine.Delta
module V = Engine.View
module P = Engine.Planner
module C = Engine.Controller

(* A small deterministic MMD instance plus a churn log for it. *)
let world seed =
  let rng = Prelude.Rng.create seed in
  let inst =
    Workloads.Generator.instance rng
      { Workloads.Generator.default with
        num_streams = 25;
        num_users = 15;
        m = 2;
        mc = 1;
        density = 0.25;
        budget_fraction = 0.3 }
  in
  let log =
    Engine.Churn.generate ~rng (V.of_instance inst)
      { Engine.Churn.default with deltas = 120 }
  in
  (inst, log)

(* ---------- Delta serialization ---------- *)

let sample_log =
  [ D.User_join
      { D.utility_cap = infinity;
        capacity = [| 7.5 |];
        interests = [ (0, 2., [| 2. |]); (3, 0.125, [| 0.125 |]) ] };
    D.User_join
      { D.utility_cap = 4.25; capacity = [| infinity |]; interests = [] };
    D.User_leave 2;
    D.Stream_cost_change { stream = 1; costs = [| 3.; 0.5 |] };
    D.Budget_resize [| 10.; infinity |] ]

let test_delta_roundtrip () =
  let text = D.log_to_string sample_log in
  let back = D.log_of_string text in
  check_int "length" (List.length sample_log) (List.length back);
  List.iter2
    (fun a b ->
      check_bool (Printf.sprintf "delta %s survives" (D.kind a)) true (a = b))
    sample_log back

let test_delta_comments_and_errors () =
  let log = D.log_of_string "# header\n\nleave 4\n  # indented comment\n" in
  check_bool "comments skipped" true (log = [ D.User_leave 4 ]);
  (match D.log_of_string "leave 1\nbogus 2\n" with
  | exception Failure msg ->
      check_bool "line number in error" true (contains msg "2")
  | _ -> Alcotest.fail "expected parse failure");
  match D.of_string "cost 0" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected arity failure"

(* The result-returning parsers carry the same context as the
   exceptions at the CLI boundary, without raising. *)
let test_delta_result_api () =
  (match D.of_string_result "leave 4" with
  | Ok d -> check_bool "parses" true (d = D.User_leave 4)
  | Error msg -> Alcotest.fail msg);
  (match D.of_string_result "cost 0" with
  | Error msg -> check_bool "names the parser" true (contains msg "of_string")
  | Ok _ -> Alcotest.fail "expected arity error");
  (match D.log_of_string_result "leave 1\nbogus 2\n" with
  | Error msg -> check_bool "line number in error" true (contains msg "line 2")
  | Ok _ -> Alcotest.fail "expected parse error");
  match D.log_of_string_result "# ok\nleave 3\n" with
  | Ok log -> check_bool "log parses" true (log = [ D.User_leave 3 ])
  | Error msg -> Alcotest.fail msg

let test_churn_log_roundtrip () =
  let _, log = world 7 in
  let back = D.log_of_string (D.log_to_string log) in
  check_bool "generated log survives text round-trip" true (log = back)

(* ---------- View semantics ---------- *)

let test_view_join_leave_slots () =
  let inst, _ = world 11 in
  let v = V.of_instance inst in
  let n0 = V.active_count v in
  check_int "all users active initially" (Mmd.Instance.num_users inst) n0;
  let spec =
    { D.utility_cap = infinity;
      capacity = [| infinity |];
      interests = [ (0, 1., [| 1. |]) ] }
  in
  let slot =
    match V.apply v (D.User_join spec) with
    | V.Joined s -> s
    | _ -> Alcotest.fail "expected Joined"
  in
  check_int "fresh slot appended" n0 slot;
  check_int "population grew" (n0 + 1) (V.active_count v);
  ignore (V.apply v (D.User_leave 3));
  check_bool "slot 3 inactive" false (V.is_active v 3);
  check_float "inactive slot utility zeroed" 0. (V.utility v 3 0);
  (match V.apply v (D.User_join spec) with
  | V.Joined s -> check_int "freed slot reused" 3 s
  | _ -> Alcotest.fail "expected Joined");
  match V.apply v (D.User_leave 3) with
  | V.Left _ -> (
      match V.apply v (D.User_leave 3) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "double leave must be rejected")
  | _ -> Alcotest.fail "expected Left"

let test_view_clamping_invariants () =
  let inst, _ = world 13 in
  let v = V.of_instance inst in
  (* A cost far above the budget is clamped down to it. *)
  let huge = Array.init (V.m v) (fun i -> 1e12 +. float i) in
  ignore (V.apply v (D.Stream_cost_change { stream = 0; costs = huge }));
  for i = 0 to V.m v - 1 do
    check_bool "cost clamped to budget" true
      (V.server_cost v 0 i <= V.budget v i)
  done;
  (* Shrinking a budget drags oversized costs down with it. *)
  let shrunk = Array.init (V.m v) (fun i -> V.budget v i /. 4.) in
  ignore (V.apply v (D.Budget_resize shrunk));
  for s = 0 to V.num_streams v - 1 do
    for i = 0 to V.m v - 1 do
      check_bool "every stream still fits every budget" true
        (V.server_cost v s i <= V.budget v i)
    done
  done;
  (* Materialization of any reachable state is a valid instance. *)
  let frozen = V.materialize v in
  check_int "slots preserved" (V.num_slots v) (Mmd.Instance.num_users frozen)

let test_view_copy_isolated () =
  let inst, log = world 17 in
  let v = V.of_instance inst in
  let w = V.copy v in
  List.iter (fun d -> ignore (V.apply w d)) log;
  check_int "original untouched" (Mmd.Instance.num_users inst)
    (V.active_count v);
  check_int "original version untouched" 0 (V.version v)

(* [View.interested] against a model: every stream's set of active
   slots that value it, over random join/leave sequences. Leaves free
   low slots that later joins reuse, so inserts land mid-array; a full
   major GC now and then moves the incidence arrays out of the minor
   heap. *)
type view_op = Join of bool list | Leave of int | Major

let interested_model_prop ops =
  let row = [| 1.; 0.; 2.; 0.; 0.; 1. |] in
  let ns = Array.length row in
  let v = V.of_instance (smd ~costs:(Array.make ns 1.) ~utilities:[| row |] ()) in
  let model = Array.map (fun w -> if w > 0. then [ 0 ] else []) row in
  let agrees () =
    List.for_all
      (fun s ->
        let l = V.interested v s in
        l = model.(s) && V.inc_len v s = List.length l)
      (List.init ns Fun.id)
  in
  List.for_all
    (fun op ->
      (match op with
      | Join mask ->
          let interests =
            List.concat
              (List.mapi
                 (fun s wanted ->
                   if wanted then [ (s, 1. +. float s, [| 0. |]) ] else [])
                 mask)
          in
          let spec =
            { D.utility_cap = infinity; capacity = [| 1. |]; interests }
          in
          (match V.apply v (D.User_join spec) with
          | V.Joined u ->
              List.iter
                (fun (s, _, _) -> model.(s) <- List.merge compare [ u ] model.(s))
                interests
          | _ -> assert false)
      | Leave k -> (
          match V.active_slots v with
          | [] -> ()
          | active ->
              let u = List.nth active (k mod List.length active) in
              ignore (V.apply v (D.User_leave u));
              Array.iteri (fun s l -> model.(s) <- List.filter (( <> ) u) l) model)
      | Major -> Gc.full_major ());
      agrees ())
    ops

let qcheck_interested_model =
  qtest ~count:100 "view interested sets stay ascending and match a model"
    QCheck2.Gen.(
      list_size (int_range 0 150)
        (frequency
           [ (10, map (fun m -> Join m) (list_repeat 6 bool));
             (6, map (fun k -> Leave k) nat);
             (1, pure Major) ]))
    interested_model_prop

(* ---------- Planner: lazy vs eager ---------- *)

let test_lazy_equals_eager () =
  for seed = 1 to 8 do
    let inst, log = world (100 + seed) in
    let v = V.of_instance inst in
    List.iter (fun d -> ignore (V.apply v d)) log;
    let lazy_util, lazy_evals = C.scratch ~mode:P.Lazy v in
    let eager_util, eager_evals = C.scratch ~mode:P.Eager v in
    check_float "same utility" eager_util lazy_util;
    check_bool "lazy never evaluates more" true (lazy_evals <= eager_evals)
  done

let test_lazy_saves_on_big_instances () =
  let rng = Prelude.Rng.create 42 in
  let inst =
    Workloads.Generator.instance rng
      { Workloads.Generator.default with
        num_streams = 80;
        num_users = 60;
        density = 0.15;
        budget_fraction = 0.2 }
  in
  let v = V.of_instance inst in
  let _, lazy_evals = C.scratch ~mode:P.Lazy v in
  let _, eager_evals = C.scratch ~mode:P.Eager v in
  check_bool
    (Printf.sprintf "laziness pays off (%d lazy vs %d eager)" lazy_evals
       eager_evals)
    true
    (lazy_evals < eager_evals)

(* One budget of 3 and 50 unit-cost streams, stream s valued by its
   own two users only: the greedy admits 3 streams and then no
   candidate fits. Lazy confirms each of the 3 on one evaluation and
   stops; eager evaluates every live candidate in the 3 rounds that
   admit, 50 + 49 + 48, and none after. A greedy that went on would
   evaluate each of the 47 unfit candidates at least once. *)
let test_greedy_stops_at_spent_budget () =
  let ns = 50 in
  let utilities =
    Array.init (2 * ns) (fun u ->
        Array.init ns (fun s ->
            if s = u / 2 then 1. +. float ((u * 7) mod 10) /. 10. else 0.))
  in
  let v = V.of_instance (smd ~budget:3. ~costs:(Array.make ns 1.) ~utilities ()) in
  let run mode =
    let p = C.scratch_planner ~mode v in
    check_int "three streams admitted" 3 (List.length (P.admitted p));
    (P.admitted p, P.evals p)
  in
  let lazy_plan, lazy_evals = run P.Lazy in
  let eager_plan, eager_evals = run P.Eager in
  Alcotest.(check (list int)) "same plan" lazy_plan eager_plan;
  check_bool
    (Printf.sprintf "lazy evaluates fewer than %d (%d)" ns lazy_evals)
    true (lazy_evals < ns);
  check_int "eager evaluates only the admitting rounds" (50 + 49 + 48)
    eager_evals

(* ---------- Controller invariants under churn ---------- *)

(* The planner's kernel skips the per-slot membership test for a
   stream that is not admitted, which is sound only while no slot
   holds a stream the server does not transmit. *)
let delivered_are_admitted ctrl =
  let p = C.planner ctrl in
  let ok = ref true in
  for u = 0 to V.num_slots (C.view ctrl) - 1 do
    List.iter (fun s -> if not (P.is_admitted p s) then ok := false)
      (P.delivered p u)
  done;
  !ok

(* Bitwise plan equality: the same utility bits, the same transmitted
   streams and the same assignment. *)
let same_plan_bits ctrl scratch =
  Int64.equal
    (Int64.bits_of_float (C.utility ctrl))
    (Int64.bits_of_float (P.utility scratch))
  && P.admitted (C.planner ctrl) = P.admitted scratch
  && Mmd.Io.assignment_to_string (C.plan ctrl)
     = Mmd.Io.assignment_to_string (P.assignment scratch)

let check_consistent ~msg ctrl =
  check_bool (msg ^ ": every delivered stream is admitted") true
    (delivered_are_admitted ctrl);
  let frozen = V.materialize (C.view ctrl) in
  let plan = C.plan ctrl in
  check_bool (msg ^ ": plan feasible") true
    (Mmd.Assignment.is_feasible frozen plan);
  check_float_loose
    (msg ^ ": incremental utility matches recomputed")
    (Mmd.Assignment.utility frozen plan)
    (C.utility ctrl)

let test_controller_stays_consistent () =
  let inst, log = world 23 in
  let ctrl = C.create ~policy:(C.Every 16) inst in
  check_consistent ~msg:"initial" ctrl;
  List.iteri
    (fun i d ->
      ignore (C.apply ctrl d);
      check_consistent ~msg:(Printf.sprintf "after delta %d" i) ctrl)
    log

let test_replan_matches_scratch () =
  let inst, log = world 29 in
  let ctrl = C.create ~policy:C.Manual inst in
  C.apply_all ctrl log;
  C.replan ctrl;
  check_bool "replan equals from-scratch solve, bit for bit" true
    (same_plan_bits ctrl (C.scratch_planner (C.view ctrl)))

(* Metamorphic property: whatever the delta sequence, after a final
   replan the maintained plan is feasible and exactly as good as
   solving the mutated world from scratch — and never worse than the
   best single stream (the §2.2 guarantee anchor). *)
let metamorphic_prop (seed, deltas, policy) =
  let rng = Prelude.Rng.create seed in
  let inst =
    Workloads.Generator.instance rng
      { Workloads.Generator.default with
        num_streams = 15;
        num_users = 10;
        m = 2;
        mc = 1;
        density = 0.3;
        budget_fraction = 0.35 }
  in
  let log =
    Engine.Churn.generate ~rng (V.of_instance inst)
      { Engine.Churn.default with deltas }
  in
  let ctrl = C.create ~policy inst in
  let invariant =
    List.for_all
      (fun d ->
        ignore (C.apply ctrl d);
        delivered_are_admitted ctrl)
      log
  in
  C.replan ctrl;
  let frozen = V.materialize (C.view ctrl) in
  let plan = C.plan ctrl in
  let best_single =
    match P.best_single (C.planner ctrl) with Some (_, w) -> w | None -> 0.
  in
  invariant
  && Mmd.Assignment.is_feasible frozen plan
  && Float.abs (C.utility ctrl -. Mmd.Assignment.utility frozen plan) < 1e-6
  && same_plan_bits ctrl (C.scratch_planner (C.view ctrl))
  && C.utility ctrl +. 1e-9 >= best_single

let qcheck_metamorphic =
  qtest ~count:60 "metamorphic: churn then replan = scratch"
    QCheck2.Gen.(
      triple (int_range 1 10_000) (int_range 0 150)
        (oneofl [ C.Every 8; C.Every 32; C.Drift 0.05; C.Manual ]))
    metamorphic_prop

(* The kernel's inlined tolerance test is [Float_ops.leq] at the
   default tolerance, on ordinary values, values within the tolerance
   of each other, signed zeros, infinities and NaN alike. *)
let leq_agrees_prop (a, b) =
  P.leq a b = Prelude.Float_ops.leq a b && P.leq b a = Prelude.Float_ops.leq b a

let qcheck_leq_agrees =
  let special =
    QCheck2.Gen.oneofl
      [ 0.; -0.; 1.; -1.; 1e-9; -1e-9; infinity; neg_infinity; nan; max_float;
        -.max_float; min_float ]
  in
  let any = QCheck2.Gen.(oneof [ special; float; float_range (-10.) 10. ]) in
  let near =
    QCheck2.Gen.(
      map2 (fun a k -> (a, a +. (k *. 1e-9 *. Float.max 1. (Float.abs a))))
        (float_range (-1e6) 1e6) (float_range (-3.) 3.))
  in
  qtest ~count:2000 "planner leq = Float_ops.leq at the default tolerance"
    QCheck2.Gen.(oneof [ pair any any; near ])
    leq_agrees_prop

(* ---------- Counters ---------- *)

let test_counters_accounting () =
  let inst, log = world 31 in
  let ctrl = C.create ~policy:(C.Every 10) inst in
  C.apply_all ctrl log;
  let r = C.report ctrl in
  check_int "every delta counted" (List.length log) r.Engine.Counters.deltas;
  check_int "kind counts add up" r.Engine.Counters.deltas
    (r.Engine.Counters.joins + r.Engine.Counters.leaves
   + r.Engine.Counters.cost_changes + r.Engine.Counters.budget_resizes);
  check_bool "epoch policy fired" true (r.Engine.Counters.replans >= 12);
  check_bool "lazy saved work" true (r.Engine.Counters.evals_saved > 0);
  check_int "saved = equivalent - actual" r.Engine.Counters.evals_saved
    (max 0 (r.Engine.Counters.eager_equiv - r.Engine.Counters.evals))

(* ---------- Snapshot round-trip ---------- *)

let test_snapshot_roundtrip () =
  let inst, log = world 37 in
  let front, back =
    let rec split i acc = function
      | rest when i = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | d :: rest -> split (i - 1) (d :: acc) rest
    in
    split 60 [] log
  in
  let ctrl = C.create ~policy:(C.Every 16) inst in
  C.apply_all ctrl front;
  let text = Engine.Snapshot.save ctrl in
  check_bool "magic recognized" true (Engine.Snapshot.is_snapshot text);
  check_bool "instance text is not a snapshot" false
    (Engine.Snapshot.is_snapshot (Mmd.Io.to_string inst));
  let restored = Result.get_ok (Engine.Snapshot.load_result text) in
  check_float "utility restored" (C.utility ctrl) (C.utility restored);
  check_bool "plan restored" true
    (P.admitted (C.planner ctrl) = P.admitted (C.planner restored));
  check_bool "policy restored" true (C.policy ctrl = C.policy restored);
  check_int "delta count restored"
    (Engine.Counters.deltas (C.counters ctrl))
    (Engine.Counters.deltas (C.counters restored));
  (* The restored controller continues exactly like the original. *)
  C.apply_all ctrl back;
  C.apply_all restored back;
  check_float "futures agree" (C.utility ctrl) (C.utility restored);
  check_bool "future plans agree" true
    (P.admitted (C.planner ctrl) = P.admitted (C.planner restored))

(* ---------- Simnet integration ---------- *)

let test_engine_driver_run () =
  let inst, _ = world 41 in
  let rng = Prelude.Rng.create 5 in
  let stats =
    Simnet.Engine_driver.run ~rng ~duration:200. ~join_rate:0.3
      ~mean_dwell:60. inst
  in
  check_bool "population churned" true (stats.Simnet.Engine_driver.joins > 0);
  check_bool "departures happened" true
    (stats.Simnet.Engine_driver.leaves > 0);
  check_bool "utility accrued" true
    (stats.Simnet.Engine_driver.utility_time > 0.)

let test_engine_policy_no_violations () =
  let inst, _ = world 43 in
  let rng = Prelude.Rng.create 9 in
  let config =
    { Simnet.Headend.default_config with duration = 300.; arrival_rate = 0.4 }
  in
  let m =
    Simnet.Headend.run ~rng ~config inst (fun t ->
        Simnet.Engine_driver.policy t)
  in
  check_int "no budget or capacity violations" 0 m.Simnet.Headend.violations;
  check_bool "some sessions admitted" true (m.Simnet.Headend.accepted > 0)

let suite =
  [ Alcotest.test_case "delta round-trip" `Quick test_delta_roundtrip;
    Alcotest.test_case "delta comments and errors" `Quick
      test_delta_comments_and_errors;
    Alcotest.test_case "delta result api" `Quick test_delta_result_api;
    Alcotest.test_case "churn log round-trip" `Quick test_churn_log_roundtrip;
    Alcotest.test_case "view join/leave slots" `Quick
      test_view_join_leave_slots;
    Alcotest.test_case "view clamping invariants" `Quick
      test_view_clamping_invariants;
    Alcotest.test_case "view copy isolation" `Quick test_view_copy_isolated;
    qcheck_interested_model;
    Alcotest.test_case "lazy = eager plans" `Quick test_lazy_equals_eager;
    Alcotest.test_case "lazy saves evaluations" `Quick
      test_lazy_saves_on_big_instances;
    Alcotest.test_case "greedy stops at a spent budget" `Quick
      test_greedy_stops_at_spent_budget;
    Alcotest.test_case "controller consistency under churn" `Quick
      test_controller_stays_consistent;
    Alcotest.test_case "replan matches scratch solve" `Quick
      test_replan_matches_scratch;
    qcheck_leq_agrees;
    qcheck_metamorphic;
    Alcotest.test_case "counters accounting" `Quick test_counters_accounting;
    Alcotest.test_case "snapshot round-trip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "engine driver user churn" `Quick
      test_engine_driver_run;
    Alcotest.test_case "engine head-end policy" `Quick
      test_engine_policy_no_violations ]
