open Helpers
module I = Mmd.Instance
module A = Mmd.Assignment
module G = Algorithms.Greedy

(* Single user, unbounded cap: greedy should fill by density. *)
let test_density_order () =
  let t =
    smd ~budget:5.
      ~costs:[| 1.; 2.; 4. |]
      (* densities: 3/1=3, 4/2=2, 4/4=1 *)
      ~utilities:[| [| 3.; 4.; 4. |] |]
      ()
  in
  let r = G.run t in
  Alcotest.(check (list int)) "picks by density" [ 0; 1 ] r.G.picks;
  check_float "utility" 7. (utility t r.G.assignment);
  check_bool "budget respected" true (is_feasible t r.G.assignment)

let test_blocked_stream_recorded () =
  let t =
    smd ~budget:5.
      ~costs:[| 1.; 5. |]
      (* stream 1 has best absolute utility but is blocked once 0 is
         taken. densities: 10/1 vs 11/5. *)
      ~utilities:[| [| 10.; 11. |] |]
      ()
  in
  let r = G.run t in
  Alcotest.(check (list int)) "keeps cheap one" [ 0 ] r.G.picks;
  Alcotest.(check (option int)) "records blocked" (Some 1) r.G.first_blocked

let test_multi_user_sharing () =
  (* One stream serves all users at once: cost paid once, utility
     summed across users — the multicast advantage the model captures. *)
  let t =
    smd ~budget:2.
      ~costs:[| 2.; 2. |]
      ~utilities:[| [| 3.; 4. |]; [| 3.; 0. |]; [| 3.; 0. |] |]
      ()
  in
  let r = G.run t in
  (* stream 0: total 9 vs stream 1: total 4 -> greedy takes 0. *)
  Alcotest.(check (list int)) "shared stream wins" [ 0 ] r.G.picks;
  check_float "total utility" 9. (utility t r.G.assignment)

let test_saturation_semi_feasible () =
  (* Cap 5; greedy may exceed it once (semi-feasible), and the capped
     objective counts at most 5. *)
  let t =
    smd ~budget:10. ~caps:[| 5. |]
      ~costs:[| 1.; 1. |]
      ~utilities:[| [| 4.; 4. |] |]
      ()
  in
  let r = G.run t in
  Alcotest.(check (list int)) "both assigned" [ 0; 1 ]
    (A.user_streams r.G.assignment 0);
  check_float "capped value" 5. (utility t r.G.assignment);
  (* User is saturated: last stream recorded. *)
  check_bool "last stream present" true (r.G.last_stream.(0) <> None)

let test_saturated_user_gets_nothing_more () =
  let t =
    smd ~budget:10. ~caps:[| 4. |]
      ~costs:[| 1.; 1.; 1. |]
      ~utilities:[| [| 4.; 4.; 4. |] |]
      ()
  in
  let r = G.run t in
  (* First stream saturates exactly; residual zero, so no more streams
     are worth assigning. *)
  check_int "only one stream" 1 (List.length (A.user_streams r.G.assignment 0))

let test_effective_cap () =
  let t =
    smd ~budget:10. ~caps:[| 3. |] ~costs:[| 1. |] ~utilities:[| [| 9. |] |] ()
  in
  check_float "cap is min(W, K)" 3. (G.effective_cap t 0)

let test_initial_streams () =
  let t =
    smd ~budget:4.
      ~costs:[| 1.; 3. |]
      ~utilities:[| [| 10.; 1. |] |]
      ()
  in
  let r = G.run ~initial_streams:[ 1 ] t in
  check_bool "forced stream present" true (List.mem 1 (A.range r.G.assignment));
  check_bool "greedy continues" true (List.mem 0 (A.range r.G.assignment))

let test_initial_streams_over_budget () =
  let t =
    smd ~budget:2. ~costs:[| 2.; 2. |] ~utilities:[| [| 1.; 1. |] |] ()
  in
  match G.run ~initial_streams:[ 0; 1 ] t with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_precondition () =
  let t =
    random_mmd ~seed:0 ~num_streams:4 ~num_users:2 ~m:2 ~mc:1 ~skew:1.
  in
  match G.run t with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected m=1 precondition failure"

let test_zero_cost_streams_first () =
  let t =
    smd ~budget:1.
      ~costs:[| 0.; 1. |]
      ~utilities:[| [| 0.5; 10. |] |]
      ()
  in
  let r = G.run t in
  (* Zero-cost stream has infinite effectiveness: taken first, and the
     budget still accommodates the other. *)
  Alcotest.(check (list int)) "free first" [ 0; 1 ] r.G.picks

(* Stream 0 saturates user 0 for free, which leaves stream 1 free but
   worth nothing. That spent free stream must not outrank stream 2,
   which costs the whole budget and is worth 5 to user 1. *)
let test_spent_free_stream_ranks_last () =
  let t =
    smd ~budget:1. ~caps:[| 1.; infinity |]
      ~costs:[| 0.; 0.; 1. |]
      ~utilities:[| [| 1.; 1.; 0. |]; [| 0.; 0.; 5. |] |]
      ()
  in
  let r = G.run t in
  Alcotest.(check (list int)) "free stream, then the paid one" [ 0; 2 ] r.G.picks;
  check_float "utility" 6. (utility t r.G.assignment)

(* Reference implementation: the same algorithm with residual utilities
   recomputed from scratch every iteration (no incremental updates),
   ranking by the tests' own exact oracle ([Helpers.exact_better]).
   The optimized greedy must make identical decisions. *)
let naive_greedy inst =
  let ns = I.num_streams inst and nu = I.num_users inst in
  let assigned = Array.make_matrix nu ns false in
  let candidate = Array.make ns true in
  let budget_left = ref (I.budget inst 0) in
  let cap u = Algorithms.Greedy.effective_cap inst u in
  let resid u =
    let used = ref 0. in
    for s = 0 to ns - 1 do
      if assigned.(u).(s) then used := !used +. I.utility inst u s
    done;
    Float.max 0. (cap u -. !used)
  in
  let stream_resid s =
    Array.fold_left
      (fun acc u ->
        if assigned.(u).(s) then acc
        else acc +. Float.min (I.utility inst u s) (resid u))
      0. (I.interested_users inst s)
  in
  let picks = ref [] in
  let rec loop () =
    let best = ref (-1) and bw = ref 0. and bc = ref 0. in
    for s = 0 to ns - 1 do
      if candidate.(s) then begin
        let w = stream_resid s and c = I.server_cost inst s 0 in
        if !best < 0 || exact_better w c !bw !bc then begin
          best := s;
          bw := w;
          bc := c
        end
      end
    done;
    if !best >= 0 && !bw > 0. then begin
      let s = !best in
      if Prelude.Float_ops.leq (I.server_cost inst s 0) !budget_left then begin
        budget_left := !budget_left -. I.server_cost inst s 0;
        Array.iter
          (fun u -> if resid u > 0. then assigned.(u).(s) <- true)
          (I.interested_users inst s);
        picks := s :: !picks
      end;
      candidate.(s) <- false;
      loop ()
    end
  in
  loop ();
  (List.rev !picks,
   A.of_sets
     (Array.init nu (fun u ->
          List.filter (fun s -> assigned.(u).(s)) (List.init ns Fun.id))))

let incremental_matches_naive =
  qtest ~count:60 "optimized greedy equals the from-scratch reference"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Prelude.Rng.create seed in
      let t =
        Workloads.Generator.instance rng
          { Workloads.Generator.default with
            num_streams = 14;
            num_users = 5;
            utility_cap_fraction = Some 0.4 }
      in
      let fast = G.run t in
      let naive_picks, naive_assignment = naive_greedy t in
      fast.G.picks = naive_picks
      && Prelude.Float_ops.approx_equal ~eps:1e-9
           (utility t fast.G.assignment)
           (utility t naive_assignment))

(* Lemma 2.2 corollary (Theorem 2.5): greedy utility plus the blocked
   stream's residual beats (1 - 1/e) x OPT. We check the implementable
   consequence on random unit-skew instances: greedy+best-single is
   within 2e/(e-1) of the exact optimum (Lemma 2.6). *)
let lemma_2_6_bound =
  qtest ~count:60 "greedy + Amax within 2e/(e-1) of OPT"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let t = random_smd ~seed ~num_streams:9 ~num_users:4 in
      let opt, _ = Exact.Brute_force.solve t in
      let a = Algorithms.Greedy_fixed.run_augmented t in
      let bound = 2. *. Float.exp 1. /. (Float.exp 1. -. 1.) in
      utility t a *. bound +. 1e-9 >= opt)

let budget_never_violated =
  qtest ~count:80 "greedy never violates the budget"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let t = random_smd ~seed ~num_streams:15 ~num_users:5 in
      let r = G.run t in
      Prelude.Float_ops.leq
        (A.server_cost t r.G.assignment 0)
        (I.budget t 0))

let semi_feasible_one_over =
  qtest ~count:80 "users overshoot their cap at most once"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Prelude.Rng.create seed in
      let t =
        Workloads.Generator.instance rng
          { Workloads.Generator.default with
            num_streams = 12;
            num_users = 4;
            utility_cap_fraction = Some 0.4 }
      in
      let r = G.run t in
      let ok = ref true in
      for u = 0 to I.num_users t - 1 do
        let streams = A.user_streams r.G.assignment u in
        let total = A.user_utility t r.G.assignment u in
        let cap = G.effective_cap t u in
        if total > cap +. 1e-9 then begin
          (* Over the cap: removing the last stream must fall back
             under (the paper's "at most once per user" saturation). *)
          match r.G.last_stream.(u) with
          | None -> ok := false
          | Some last ->
              if not (List.mem last streams) then ok := false
              else begin
                let without =
                  List.fold_left
                    (fun acc s ->
                      if s = last then acc else acc +. I.utility t u s)
                    0. streams
                in
                if without > cap +. 1e-9 then ok := false
              end
        end
      done;
      !ok)

let unconstrained_budget_saturates =
  qtest ~count:40 "with budget >= total cost greedy reaches the utility cap"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let t = random_smd ~seed ~num_streams:10 ~num_users:3 in
      let costs = Array.init 10 (fun s -> I.server_cost t s 0) in
      let utilities =
        Array.init 3 (fun u -> Array.init 10 (fun s -> I.utility t u s))
      in
      let caps = Array.init 3 (fun u -> G.effective_cap t u) in
      let unconstrained =
        smd ~budget:(Prelude.Float_ops.sum costs) ~caps ~costs ~utilities ()
      in
      let expected =
        Prelude.Float_ops.sum
          (Array.init 3 (fun u ->
               Float.min caps.(u)
                 (Prelude.Float_ops.sum utilities.(u))))
      in
      Prelude.Float_ops.approx_equal ~eps:1e-6 expected
        (utility unconstrained (G.run unconstrained).G.assignment))

let suite =
  [ ("density order", `Quick, test_density_order);
    ("blocked stream recorded", `Quick, test_blocked_stream_recorded);
    ("multicast sharing", `Quick, test_multi_user_sharing);
    ("saturation is semi-feasible", `Quick, test_saturation_semi_feasible);
    ("saturated user stops", `Quick, test_saturated_user_gets_nothing_more);
    ("effective cap", `Quick, test_effective_cap);
    ("warm start", `Quick, test_initial_streams);
    ("warm start over budget", `Quick, test_initial_streams_over_budget);
    ("m=1 precondition", `Quick, test_precondition);
    ("zero-cost streams first", `Quick, test_zero_cost_streams_first);
    ("spent free stream ranks last", `Quick, test_spent_free_stream_ranks_last);
    incremental_matches_naive;
    lemma_2_6_bound;
    budget_never_violated;
    semi_feasible_one_over;
    unconstrained_budget_saturates ]
