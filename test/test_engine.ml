open Helpers
module D = Engine.Delta
module V = Engine.View
module P = Engine.Planner
module C = Engine.Controller

(* A small deterministic MMD instance plus a churn log for it. *)
(* A [quantized] world has equal costs and unit utilities, so exact
   ties in cost-effectiveness are everywhere. *)
let world ?(quantized = false) seed =
  let rng = Prelude.Rng.create seed in
  let g = Workloads.Generator.default in
  let inst =
    Workloads.Generator.instance rng
      { g with
        num_streams = 25;
        num_users = 15;
        m = 2;
        mc = 1;
        density = 0.25;
        budget_fraction = 0.3;
        cost_range = (if quantized then (2., 2.) else g.cost_range);
        utility_range = (if quantized then (1., 1.) else g.utility_range) }
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

(* Both modes pick by one strict total order, so they build the same
   plan bit for bit, on quantized worlds too. *)
let test_lazy_equals_eager () =
  let plan_bits p =
    Printf.sprintf "%Lx %s %s"
      (Int64.bits_of_float (P.utility p))
      (String.concat "," (List.map string_of_int (P.admitted p)))
      (Mmd.Io.assignment_to_string (P.assignment p))
  in
  List.iter
    (fun quantized ->
      for seed = 1 to 8 do
        let inst, log = world ~quantized (100 + seed) in
        let v = V.of_instance inst in
        List.iter (fun d -> ignore (V.apply v d)) log;
        let lz = C.scratch_planner ~mode:P.Lazy v in
        let eg = C.scratch_planner ~mode:P.Eager v in
        Alcotest.(check string) "same plan bits" (plan_bits eg) (plan_bits lz);
        check_bool "lazy never evaluates more" true (P.evals lz <= P.evals eg)
      done)
    [ false; true ]

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
  let visits () = Obs.Metrics.sum_counter "planner_incidence_visits_total" in
  let run mode =
    let visits0 = visits () in
    let p = C.scratch_planner ~mode v in
    check_int "three streams admitted" 3 (List.length (P.admitted p));
    (* No stream shares a user, so every entry stays live and each
       evaluation walks its stream's two. *)
    check_int "exported incidence visits" (2 * P.evals p) (visits () - visits0);
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

(* A zero-cost stream whose marginal falls to 0 ranks below every
   stream that still has one. Stream 0 (cost 0) fills user 0's
   utility cap; stream 3 (cost 0) then has no marginal left, while
   stream 4 (cost 1) still has one at user 1. Ranked as tied with the
   positive-cost streams, stream 3 made the pick order cyclic (4
   before 1 by effectiveness, 1 before 3 and 3 before 4 by id), and
   the lazy greedy re-evaluated around the cycle forever. *)
let test_zero_cost_without_marginal_ranks_last () =
  let row l = Array.map (fun x -> [| x |]) l in
  let inst =
    Mmd.Instance.create
      ~server_cost:(row [| 0.; 2.; 2.; 0.; 1.; 2. |])
      ~budget:[| 2. |]
      ~load:
        [| row [| 4.; 1.; 1.; 2.; infinity; 0. |]; row (Array.make 6 0.) |]
      ~capacity:[| [| infinity |]; [| 0. |] |]
      ~utility:[| [| 1.; 1.; 1.; 2.; 1.; 0. |]; [| 0.; 0.; 0.; 0.; 1.; 0. |] |]
      ~utility_cap:[| 1.; 1. |] ()
  in
  let v = V.of_instance inst in
  List.iter
    (fun mode ->
      let p = C.scratch_planner ~mode v in
      Alcotest.(check (list int)) "admitted" [ 0; 4 ] (P.admitted p);
      check_float "utility" 2. (P.utility p))
    [ P.Lazy; P.Eager ]

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

(* ---------- What the planner's kernel relies on ---------- *)

let rec shift_ulps x k =
  if k = 0 then x
  else if k > 0 then shift_ulps (Float.succ x) (k - 1)
  else shift_ulps (Float.pred x) (k + 1)

(* An entry that has failed a capacity test stays failed while the
   used capacity only grows: [leq a' b] implies [leq a b] for
   [0 <= a <= a'], at a few ulps from [b], across the tolerance's
   [max 1.] switch, at binade edges, over large gaps and at infinity. *)
let leq_monotone_prop (a, a', b) =
  (not (0. <= a && a <= a')) || (not (P.leq a' b)) || P.leq a b

let qcheck_leq_monotone =
  let open QCheck2.Gen in
  let edge =
    oneofl
      [ 0.; min_float; 1e-9; 0.5; Float.pred 1.; 1.; Float.succ 1.; 2.; 3.;
        1e6; max_float; infinity ]
  in
  let binade = map (fun e -> ldexp 1. e) (int_range (-70) 70) in
  let b = oneof [ edge; binade; float_range 0. 10.; float_range 0. 1e12 ] in
  let near b =
    oneof
      [ map (shift_ulps b) (int_range (-8) 8);
        map
          (fun k -> b +. (k *. 1e-9 *. Float.max 1. b))
          (float_range (-2.) 2.);
        map (fun r -> r *. b) (float_range 0. 2.);
        pure infinity ]
  in
  let below a' =
    oneof
      [ map (fun k -> shift_ulps a' (-k)) (int_range 0 8);
        map (fun r -> r *. a') (float_range 0. 1.);
        pure 0. ]
  in
  let triple_gen =
    b >>= fun b ->
    near b >>= fun a' ->
    below a' >>= fun a -> pure (a, a', b)
  in
  qtest ~count:5000 "planner leq is monotone in its first argument"
    triple_gen leq_monotone_prop

let pick rng a = a.(Prelude.Rng.int rng (Array.length a))
let caps_palette = [| 0.; 1.; 2.; 3.; infinity |]
let loads_palette = [| 0.; 0.5; 1.; 2.; 4.; infinity |]
let utils_palette = [| 0.; 0.; 0.5; 1.; 1.; 2. |]

(* A join spec over few streams, so that duplicate streams are common,
   with loads that often exceed the capacity. *)
let random_spec rng ~ns ~mc =
  { D.utility_cap = pick rng caps_palette;
    capacity = Array.init mc (fun _ -> pick rng caps_palette);
    interests =
      List.init (if ns = 0 then 0 else Prelude.Rng.int rng 5) (fun _ ->
          ( Prelude.Rng.int rng ns,
            pick rng utils_palette,
            Array.init mc (fun _ -> pick rng loads_palette) )) }

(* A small random view: an instance (restricted or not) with tied
   utilities, caps of 0 and infinity and over-capacity loads, then
   joins, leaves and checkpoint-style slot restores. Every stream's
   cost is at most its budget: [Instance.create] refuses more, and the
   view clamps every later cost to the budget. *)
let random_view seed =
  let rng = Prelude.Rng.create seed in
  let ns = Prelude.Rng.int rng 7 and m = 1 + Prelude.Rng.int rng 2 in
  let mc = Prelude.Rng.int rng 3 and nu = Prelude.Rng.int rng 6 in
  let budget = Array.init m (fun _ -> pick rng [| 0.; 2.; 3.; infinity |]) in
  let inst =
    Mmd.Instance.create ~mc
      ~server_cost:
        (Array.init ns (fun _ ->
             Array.init m (fun i ->
                 Float.min budget.(i) (pick rng [| 0.; 1.; 2.; 3. |]))))
      ~budget
      ~load:
        (Array.init nu (fun _ ->
             Array.init ns (fun _ ->
                 Array.init mc (fun _ -> pick rng loads_palette))))
      ~capacity:
        (Array.init nu (fun _ -> Array.init mc (fun _ -> pick rng caps_palette)))
      ~utility:
        (Array.init nu (fun _ -> Array.init ns (fun _ -> pick rng utils_palette)))
      ~utility_cap:(Array.init nu (fun _ -> pick rng caps_palette))
      ()
  in
  let inst =
    if Prelude.Rng.bool rng then inst
    else
      Mmd.Instance.restrict inst
        ~users:
          (Array.of_list
             (List.filter (fun _ -> Prelude.Rng.bool rng) (List.init nu Fun.id)))
        ~budget:(Array.map (fun b -> pick rng [| b; 1.; infinity |]) budget)
  in
  let v = V.of_instance inst in
  let random_active () =
    match V.active_slots v with
    | [] -> None
    | a -> Some (List.nth a (Prelude.Rng.int rng (List.length a)))
  in
  for _ = 1 to Prelude.Rng.int rng 12 do
    match Prelude.Rng.int rng 4 with
    | 0 | 1 -> ignore (V.apply v (D.User_join (random_spec rng ~ns ~mc)))
    | 2 -> Option.iter (fun u -> ignore (V.apply v (D.User_leave u))) (random_active ())
    | _ ->
        Option.iter
          (fun u -> V.restore_slot v u (random_spec rng ~ns ~mc))
          (random_active ())
  done;
  (rng, v)

(* Every incidence entry's load row fits its slot's capacity under
   plain [<=]: an interest that exceeds the capacity has zero utility
   and never enters the incidence. *)
let incidence_fits v =
  let mc = V.mc v and cap = V.capacity_flat v in
  List.for_all
    (fun s ->
      let ids = V.inc_ids v s and ld = V.inc_loads v s in
      List.for_all
        (fun i ->
          List.for_all
            (fun j -> ld.((i * mc) + j) <= cap.((ids.(i) * mc) + j))
            (List.init mc Fun.id))
        (List.init (V.inc_len v s) Fun.id))
    (List.init (V.num_streams v) Fun.id)

let qcheck_incidence_fits =
  qtest ~count:500 "incidence loads fit their slot's capacity"
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun seed -> incidence_fits (snd (random_view seed)))

(* [best_single] as a scan of every incidence entry's load against its
   slot's capacity, from empty: the reference the planner must equal. *)
let best_single_model v =
  let ns = V.num_streams v in
  if ns = 0 then None
  else begin
    let mc = V.mc v and budget = V.budgets v in
    let cap = V.capacity_flat v and ucap = V.utility_caps v in
    let best = ref 0 and best_v = ref 0. in
    for s = 0 to ns - 1 do
      let cost = V.cost_row v s in
      let fits = ref true in
      for i = 0 to V.m v - 1 do
        if cost.(i) > budget.(i) then fits := false
      done;
      let acc = ref 0. in
      if !fits then begin
        let ids = V.inc_ids v s and w = V.inc_w v s and ld = V.inc_loads v s in
        for i = 0 to V.inc_len v s - 1 do
          let u = ids.(i) in
          let ok = ref true in
          for j = 0 to mc - 1 do
            if ld.((i * mc) + j) > cap.((u * mc) + j) then ok := false
          done;
          if !ok then acc := !acc +. Float.min w.(i) ucap.(u)
        done
      end;
      if s = 0 || not (!best_v >= !acc) then begin
        best := s;
        best_v := !acc
      end
    done;
    Some (!best, !best_v)
  end

let best_single_bits = Option.map (fun (s, x) -> (s, Int64.bits_of_float x))

(* A fresh planner, one after a greedy (which overwrites the bounds a
   reset seeds), and one whose view changed after its last reset. *)
let best_single_prop seed =
  let rng, v = random_view seed in
  let p = P.create v in
  let agrees () =
    best_single_bits (P.best_single p) = best_single_bits (best_single_model v)
  in
  let fresh = agrees () in
  P.reset p;
  P.extend p;
  let after_extend = agrees () in
  let ns = V.num_streams v and mc = V.mc v in
  if ns > 0 then ignore (V.apply v (D.User_join (random_spec rng ~ns ~mc)));
  let stale = agrees () in
  P.reset p;
  P.extend ~mode:P.Eager p;
  fresh && after_extend && stale && agrees ()

let qcheck_best_single_model =
  qtest ~count:500 "best_single equals a scan of the incidence"
    QCheck2.Gen.(int_range 1 1_000_000)
    best_single_prop

(* The controller's planner against a fresh one, epoch by epoch, while
   joins keep growing a popular stream's incidence arrays (so they are
   reallocated between epochs), leaves shrink them, and cost changes
   and budget resizes evict between replans. Plan bits and the
   evaluation count of each solve must equal the fresh planner's. *)
let test_replan_after_incidence_growth () =
  List.iter
    (fun mode ->
      let inst, _ = world 53 in
      let pinned = [ 3 ] in
      let ctrl = C.create ~policy:C.Manual ~pinned inst in
      let v = C.view ctrl in
      let rng = Prelude.Rng.create 7 in
      let reallocated = ref 0 in
      for epoch = 1 to 14 do
        let ids0 = V.inc_ids v 0 in
        for _ = 1 to 7 do
          let d =
            match Prelude.Rng.int rng 10 with
            | 0 | 1 -> (
                match V.active_slots v with
                | [] -> D.Budget_resize [| 4.; 4. |]
                | a -> D.User_leave (List.nth a (Prelude.Rng.int rng (List.length a))))
            | 2 ->
                D.Stream_cost_change
                  { stream = Prelude.Rng.int rng 25;
                    costs = [| Prelude.Rng.float rng 2.; Prelude.Rng.float rng 2. |] }
            | 3 ->
                D.Budget_resize
                  [| 2. +. Prelude.Rng.float rng 6.; 2. +. Prelude.Rng.float rng 6. |]
            | _ ->
                let cap = 1. +. Prelude.Rng.float rng 3. in
                let interest s =
                  (s, 0.5 +. Prelude.Rng.float rng 2., [| Prelude.Rng.float rng 4. |])
                in
                D.User_join
                  { D.utility_cap = cap *. 1.5;
                    capacity = [| cap |];
                    interests =
                      interest 0
                      :: List.init 3 (fun _ -> interest (Prelude.Rng.int rng 25)) }
          in
          ignore (C.apply ctrl d)
        done;
        if V.inc_ids v 0 != ids0 then incr reallocated;
        let evals0 = P.evals (C.planner ctrl) in
        C.replan ~mode ctrl;
        let fresh = C.scratch_planner ~mode ~pinned v in
        let msg what = Printf.sprintf "epoch %d: %s" epoch what in
        check_bool (msg "plan bits equal a fresh planner's") true
          (same_plan_bits ctrl fresh);
        check_int (msg "evaluations equal a fresh planner's") (P.evals fresh)
          (P.evals (C.planner ctrl) - evals0)
      done;
      check_bool "the popular stream's incidence was reallocated" true
        (!reallocated >= 2))
    [ P.Lazy; P.Eager ]

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
    Alcotest.test_case "zero-cost stream without marginal ranks last" `Quick
      test_zero_cost_without_marginal_ranks_last;
    Alcotest.test_case "controller consistency under churn" `Quick
      test_controller_stays_consistent;
    Alcotest.test_case "replan matches scratch solve" `Quick
      test_replan_matches_scratch;
    qcheck_leq_agrees;
    qcheck_leq_monotone;
    qcheck_incidence_fits;
    qcheck_best_single_model;
    Alcotest.test_case "replan after incidence growth" `Quick
      test_replan_after_incidence_growth;
    qcheck_metamorphic;
    Alcotest.test_case "counters accounting" `Quick test_counters_accounting;
    Alcotest.test_case "snapshot round-trip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "engine driver user churn" `Quick
      test_engine_driver_run;
    Alcotest.test_case "engine head-end policy" `Quick
      test_engine_policy_no_violations ]
