open Helpers
module F = Prelude.Float_ops
module Rng = Prelude.Rng
module S = Prelude.Sampling
module Stats = Prelude.Stats
module Heap = Prelude.Heap

(* ---------- Float_ops ---------- *)

let test_approx_equal () =
  check_bool "equal" true (F.approx_equal 1. 1.);
  check_bool "close" true (F.approx_equal 1. (1. +. 1e-12));
  check_bool "far" false (F.approx_equal 1. 1.1);
  check_bool "big scale" true (F.approx_equal 1e12 (1e12 +. 1e-3));
  check_bool "inf = inf" true (F.approx_equal infinity infinity);
  check_bool "inf <> finite" false (F.approx_equal infinity 1e300);
  check_bool "nan" false (F.approx_equal nan nan)

let test_leq () =
  check_bool "plain" true (F.leq 1. 2.);
  check_bool "equal" true (F.leq 2. 2.);
  check_bool "tolerant" true (F.leq (2. +. 1e-12) 2.);
  check_bool "violating" false (F.leq 2.1 2.);
  check_bool "inf rhs" true (F.leq 1e300 infinity);
  check_bool "inf both" true (F.leq infinity infinity);
  check_bool "inf lhs" false (F.leq infinity 1e300);
  check_bool "zero lt inf strict" true (F.lt 0. infinity);
  check_bool "not lt itself" false (F.lt 2. 2.)

let test_clamp () =
  check_float "inside" 1.5 (F.clamp ~lo:1. ~hi:2. 1.5);
  check_float "below" 1. (F.clamp ~lo:1. ~hi:2. 0.);
  check_float "above" 2. (F.clamp ~lo:1. ~hi:2. 3.);
  Alcotest.check_raises "lo > hi"
    (Invalid_argument "Float_ops.clamp: lo > hi") (fun () ->
      ignore (F.clamp ~lo:2. ~hi:1. 0.))

let test_sums () =
  check_float "sum" 6. (F.sum [| 1.; 2.; 3. |]);
  check_float "kahan equals plain on easy input" 6.
    (F.kahan_sum [| 1.; 2.; 3. |]);
  (* Kahan keeps precision where the plain sum loses it. *)
  let tricky = Array.init 10_000 (fun i -> if i = 0 then 1e9 else 1e-7) in
  let kahan = F.kahan_sum tricky in
  check_bool "kahan precise"
    true
    (Float.abs (kahan -. (1e9 +. (9999. *. 1e-7))) < 1e-6)

let test_minmax () =
  check_float "min" (-2.) (F.fmin_array [| 3.; -2.; 7. |]);
  check_float "max" 7. (F.fmax_array [| 3.; -2.; 7. |]);
  Alcotest.check_raises "empty min"
    (Invalid_argument "Float_ops.fmin_array: empty") (fun () ->
      ignore (F.fmin_array [||]))

let test_log2 () =
  check_float "log2 8" 3. (F.log2 8.);
  check_float "log2 1" 0. (F.log2 1.)

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 7 and b = Rng.create 8 in
  check_bool "different seeds differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_copy_and_split () =
  let a = Rng.create 1 in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy same" (Rng.bits64 a) (Rng.bits64 b);
  let c = Rng.split a in
  check_bool "split independent" true (Rng.bits64 a <> Rng.bits64 c)

let test_rng_ranges () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 5. in
    check_bool "float in range" true (x >= 0. && x < 5.);
    let n = Rng.int rng 17 in
    check_bool "int in range" true (n >= 0 && n < 17);
    let u = Rng.uniform rng ~lo:(-2.) ~hi:3. in
    check_bool "uniform in range" true (u >= -2. && u < 3.)
  done

let test_rng_int_unbiased () =
  (* Chi-squared-ish sanity: each bucket of [0,8) should get roughly
     1/8 of the draws. *)
  let rng = Rng.create 11 in
  let counts = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let k = Rng.int rng 8 in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter
    (fun c ->
      check_bool "bucket near uniform" true
        (abs (c - (n / 8)) < n / 40))
    counts

let test_rng_permutation () =
  let rng = Rng.create 5 in
  let p = Rng.permutation rng 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation"
    (Array.init 50 Fun.id) sorted

let test_rng_errors () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "float bound" (Invalid_argument "Rng.float: bound <= 0")
    (fun () -> ignore (Rng.float rng 0.));
  Alcotest.check_raises "int bound" (Invalid_argument "Rng.int: bound <= 0")
    (fun () -> ignore (Rng.int rng 0))

(* ---------- Sampling ---------- *)

let test_zipf_pmf () =
  let z = S.zipf ~n:10 ~s:1. in
  let total = ref 0. in
  for i = 0 to 9 do
    let p = S.zipf_pmf z i in
    check_bool "pmf positive" true (p > 0.);
    total := !total +. p
  done;
  check_float_loose "pmf sums to 1" 1. !total;
  check_bool "rank 0 most popular" true
    (S.zipf_pmf z 0 > S.zipf_pmf z 9)

let test_zipf_uniform_when_s0 () =
  let z = S.zipf ~n:4 ~s:0. in
  check_float_loose "uniform pmf" 0.25 (S.zipf_pmf z 2)

let test_zipf_draw_distribution () =
  let rng = Rng.create 13 in
  let z = S.zipf ~n:5 ~s:1.2 in
  let counts = Array.make 5 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let k = S.zipf_draw rng z in
    counts.(k) <- counts.(k) + 1
  done;
  for i = 0 to 4 do
    let expect = S.zipf_pmf z i *. float_of_int n in
    check_bool "draws match pmf" true
      (Float.abs (float_of_int counts.(i) -. expect) < 0.1 *. expect +. 50.)
  done

let test_exponential_mean () =
  let rng = Rng.create 17 in
  let xs = Array.init 50_000 (fun _ -> S.exponential rng ~rate:2.) in
  let mean = Stats.mean xs in
  check_bool "mean near 1/rate" true (Float.abs (mean -. 0.5) < 0.02)

let test_normal_moments () =
  let rng = Rng.create 19 in
  let xs = Array.init 50_000 (fun _ -> S.normal rng ~mean:3. ~stddev:2.) in
  check_bool "mean" true (Float.abs (Stats.mean xs -. 3.) < 0.05);
  check_bool "stddev" true (Float.abs (Stats.stddev xs -. 2.) < 0.05)

let test_pareto_support () =
  let rng = Rng.create 23 in
  for _ = 1 to 1000 do
    check_bool "pareto >= scale" true
      (S.pareto rng ~shape:1.5 ~scale:2. >= 2.)
  done

let test_uniform_log_range () =
  let rng = Rng.create 29 in
  for _ = 1 to 1000 do
    let x = S.uniform_log rng ~lo:0.1 ~hi:100. in
    check_bool "in range" true (x >= 0.1 && x <= 100.)
  done

let test_categorical () =
  let rng = Rng.create 31 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let k = S.categorical rng [| 1.; 2.; 7. |] in
    counts.(k) <- counts.(k) + 1
  done;
  check_bool "weights respected" true
    (counts.(2) > counts.(1) && counts.(1) > counts.(0));
  Alcotest.check_raises "zero total"
    (Invalid_argument "Sampling.categorical: zero total") (fun () ->
      ignore (S.categorical rng [| 0.; 0. |]))

let test_poisson_mean () =
  let rng = Rng.create 37 in
  let xs =
    Array.init 20_000 (fun _ -> float_of_int (S.poisson rng ~mean:4.))
  in
  check_bool "poisson mean" true (Float.abs (Stats.mean xs -. 4.) < 0.1)

(* ---------- Stats ---------- *)

let test_percentile () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "median" 3. (Stats.percentile xs 50.);
  check_float "p0" 1. (Stats.percentile xs 0.);
  check_float "p100" 5. (Stats.percentile xs 100.);
  check_float "p25 interpolated" 2. (Stats.percentile xs 25.)

let test_summary () =
  let s = Stats.summarize [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_int "count" 8 s.Stats.count;
  check_float "mean" 5. s.Stats.mean;
  check_float "min" 2. s.Stats.min;
  check_float "max" 9. s.Stats.max;
  check_bool "sample sd" true (Float.abs (s.Stats.stddev -. 2.138) < 0.01)

let test_geometric_mean () =
  check_float_loose "gm" 2. (Stats.geometric_mean [| 1.; 2.; 4. |]);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geometric_mean: non-positive value") (fun () ->
      ignore (Stats.geometric_mean [| 1.; 0. |]))

(* ---------- Heap ---------- *)

let test_heap_order () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3; 9; 2 ];
  check_int "length" 7 (Heap.length h);
  Alcotest.(check (list int)) "sorted drain" [ 1; 1; 2; 3; 4; 5; 9 ]
    (Heap.to_sorted_list h);
  check_int "unchanged by drain copy" 7 (Heap.length h);
  check_int "pop min" 1 (Heap.pop_exn h)

let test_heap_empty () =
  let h = Heap.create ~cmp:compare in
  check_bool "empty" true (Heap.is_empty h);
  check_bool "peek none" true (Heap.peek h = None);
  check_bool "pop none" true (Heap.pop h = None);
  Alcotest.check_raises "pop_exn" (Invalid_argument "Heap.pop_exn: empty heap")
    (fun () -> ignore (Heap.pop_exn h))

let heap_qcheck =
  qtest "heap drains sorted" QCheck2.Gen.(list int) (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) xs;
      Heap.to_sorted_list h = List.sort compare xs)

(* ---------- Pick ---------- *)

module Pick = Prelude.Pick

(* Entries (marginal, cost) drawn the way a float-approximation
   quickcheck draws them: magnitudes across the whole range, small
   integers, ulp neighbours, signed zeros, subnormals and values next
   to overflow. A triple is an entry and two relatives of it, each
   scaled by one power of two and nudged by an ulp, so exact and
   rounded ties are common. *)
let gen_magnitude =
  QCheck2.Gen.(
    frequency
      [ (4, map2 Float.ldexp (float_range 0.5 1.) (int_range (-1074) 1023));
        (3, map float_of_int (int_range 1 12));
        ( 2,
          oneofl
            [ 0x1p-1074; 0x3p-1074; Float.pred 0x1p-1022; 0x1p-1022;
              0x1p-958; 1e-300; 1e300; Float.pred max_float; max_float ] ) ])

let gen_nudged x =
  QCheck2.Gen.oneofl [ x; Float.succ x; Float.pred x ]

let finite x = if Float.is_finite x then x else Float.copy_sign max_float x

let gen_entry =
  QCheck2.Gen.(
    pair
      (frequency
         [ (6, gen_magnitude); (1, pure 0.); (1, pure (-0.));
           (1, map Float.neg gen_magnitude) ])
      (frequency [ (6, gen_magnitude); (1, pure 0.); (1, pure (-0.)) ]))

let gen_relative (w, c) =
  QCheck2.Gen.(
    let* k = int_range (-3) 3 in
    let* w = gen_nudged (Float.ldexp w k) in
    let+ c = gen_nudged (Float.ldexp c k) in
    (finite w, Float.abs (finite c)))

let gen_triple =
  QCheck2.Gen.(
    let* a = gen_entry in
    let related = frequency [ (3, gen_relative a); (1, gen_entry) ] in
    let+ b = related and+ c = related in
    (a, b, c))

let better (w, c) (w', c') = Pick.better w c w' c'
let incomparable x y = (not (better x y)) && not (better y x)

let print_triple ((w, c), (w', c'), (w'', c'')) =
  Printf.sprintf "(%h, %h) (%h, %h) (%h, %h)" w c w' c' w'' c''

let pick_test name prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~name ~print:print_triple gen_triple prop)

let pick_qcheck =
  [ pick_test "pick order agrees with an exact oracle"
      (fun (a, b, c) ->
        List.for_all
          (fun ((w, c), (w', c')) ->
            Pick.better w c w' c' = exact_better w c w' c')
          [ (a, b); (b, a); (a, c); (c, a); (b, c); (c, b); (a, a) ]);
    pick_test "pick order is a strict weak order"
      (fun (a, b, c) ->
        let perms =
          [ (a, b, c); (a, c, b); (b, a, c); (b, c, a); (c, a, b); (c, b, a) ]
        in
        List.for_all (fun x -> not (better x x)) [ a; b; c ]
        && List.for_all
             (fun (x, y, z) ->
               ((not (better x y && better y z)) || better x z)
               && ((not (incomparable x y && incomparable y z))
                  || incomparable x z))
             perms);
    pick_test "precedes is total on distinct ids"
      (fun ((w, c), (w', c'), _) ->
        let ws = [| w; w' |] and cs = [| c; c' |] in
        Pick.precedes w c 0 w' c' 1 <> Pick.precedes w' c' 1 w c 0
        && Pick.precedes_in ws cs 0 1 = Pick.precedes w c 0 w' c' 1
        && Pick.precedes_in ws cs 1 0 = Pick.precedes w' c' 1 w c 0
        && not (Pick.precedes_in ws cs 0 0));
    qtest ~count:500 "pick heap drains in pick order"
      QCheck2.Gen.(list_size (int_range 0 40) gen_entry)
      (fun entries ->
        let w = Array.of_list (List.map fst entries) in
        let c = Array.of_list (List.map snd entries) in
        let n = Array.length w in
        let ids = Array.make n 0 in
        for k = 0 to n - 1 do
          ids.(k) <- k;
          Pick.sift_up w c ids k
        done;
        let drained =
          List.init n (fun k ->
              let len = n - k in
              let top = ids.(0) in
              ids.(0) <- ids.(len - 1);
              Pick.sift_down w c ids (len - 1) 0;
              top)
        in
        let order a b = if Pick.precedes_in w c a b then -1 else 1 in
        drained = List.sort order (List.init n Fun.id)) ]

(* A triple on which the rounded cross-multiplication is not
   transitive: a beats b and b beats c, but a and c tie once rounded,
   so with c at the lower id the rounded pick order cycles. *)
let test_pick_rounding_cycle () =
  let a = (3., 5.) in
  let b = (Float.succ 3., Float.succ 5.) in
  let c = (Float.pred (Float.pred 3.), Float.pred 5.) in
  let rounded (w, c) (w', c') = w *. c' > w' *. c in
  check_bool "rounded: a beats b" true (rounded a b);
  check_bool "rounded: b beats c" true (rounded b c);
  check_bool "rounded: a does not beat c" false (rounded a c);
  check_bool "rounded: c does not beat a" false (rounded c a);
  check_bool "exact: a beats b" true (better a b);
  check_bool "exact: b beats c" true (better b c);
  check_bool "exact: a beats c" true (better a c)

let test_pick_edges () =
  let beats x y = check_bool "beats" true (better x y && not (better y x)) in
  let ties x y = check_bool "ties" true (incomparable x y) in
  (* A free stream with a marginal outranks any priced one. *)
  beats (1e-300, 0.) (1e300, 1e-300);
  beats (2., 0.) (1., 0.);
  (* Without one it counts as 0. *)
  ties (0., 0.) (0., 5.);
  ties (0., 0.) (-0., 0.);
  beats (0., 5.) (-1., 5.);
  beats (1., 5.) (0., 0.);
  (* Products that overflow or underflow to a rounded tie. *)
  beats (max_float, 1.5) (Float.pred max_float, 1.5);
  beats (0x1p-1074, 0.25) (0x1p-1074, 0.3);
  beats (infinity, 1.) (max_float, 1e-300);
  ties (infinity, 1.) (infinity, 2.);
  (* Equal ratios at any scale. *)
  ties (3., 5.) (0x3p-1000, 0x5p-1000);
  ties (1e300, 3.) (0x1p-50 *. 1e300, 0x3p-50)

(* ---------- Bitset ---------- *)

module B = Prelude.Bitset

let test_bitset_basics () =
  let b = B.create 70 in
  check_int "length" 70 (B.length b);
  check_int "fresh count" 0 (B.count b);
  B.set b 0;
  B.set b 7;
  B.set b 8;
  B.set b 69;
  check_bool "get set bit" true (B.get b 7);
  check_bool "mem alias" true (B.mem b 8);
  check_bool "unset bit" false (B.get b 9);
  check_int "count" 4 (B.count b);
  B.clear b 7;
  check_bool "cleared" false (B.get b 7);
  check_int "count after clear" 3 (B.count b);
  B.assign b 5 true;
  B.assign b 5 false;
  check_bool "assign false" false (B.get b 5);
  let seen = ref [] in
  B.iter_set b (fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "iter_set ascending" [ 0; 8; 69 ]
    (List.rev !seen);
  let c = B.copy b in
  check_bool "copy equal" true (B.equal b c);
  B.set c 1;
  check_bool "copy independent" false (B.get b 1);
  check_bool "not equal after set" false (B.equal b c);
  B.reset b;
  check_int "reset" 0 (B.count b)

let test_bitset_bounds () =
  let b = B.create 8 in
  Alcotest.check_raises "negative length"
    (Invalid_argument "Bitset.create: negative length") (fun () ->
      ignore (B.create (-1)));
  Alcotest.check_raises "get oob"
    (Invalid_argument "Bitset.get: index 8 out of bounds [0, 8)") (fun () ->
      ignore (B.get b 8));
  Alcotest.check_raises "set oob"
    (Invalid_argument "Bitset.set: index -1 out of bounds [0, 8)") (fun () ->
      B.set b (-1));
  Alcotest.check_raises "clear oob"
    (Invalid_argument "Bitset.clear: index 8 out of bounds [0, 8)")
    (fun () -> B.clear b 8)

let bitset_qcheck =
  qtest "bitset mirrors a bool array"
    QCheck2.Gen.(list (pair (int_range 0 99) bool))
    (fun ops ->
      let b = B.create 100 in
      let model = Array.make 100 false in
      List.iter
        (fun (i, v) ->
          B.assign b i v;
          model.(i) <- v)
        ops;
      let same = ref true in
      Array.iteri (fun i v -> if B.get b i <> v then same := false) model;
      !same
      && B.count b = Array.fold_left (fun n v -> if v then n + 1 else n) 0 model)

(* ---------- Sorted_ints ---------- *)

module SI = Prelude.Sorted_ints

(* One step of the model check: insert, delete, or a full major GC,
   which promotes the set's array so later shifts write into the major
   heap. *)
type si_op = Add of int | Remove of int | Major

(* Every observer against the model, a sorted list of distinct ints. *)
let si_agrees set model =
  let a = Array.of_list model in
  SI.length set = Array.length a
  && SI.is_empty set = (a = [||])
  && SI.to_list set = model
  && SI.fold set ~init:[] ~f:(fun acc x -> x :: acc) = List.rev model
  && SI.equal set (SI.copy set)
  && Array.for_all Fun.id
       (Array.mapi (fun i x -> SI.get set i = x && SI.index set x = i) a)

(* Returns are checked at every step, the observers after every GC and
   at the end. *)
let si_model_prop ops =
  let set = SI.create () in
  let model = ref [] in
  let step op =
    match op with
    | Add x ->
        let fresh = not (List.mem x !model) in
        if fresh then model := List.merge compare [ x ] !model;
        SI.add set x = fresh && SI.mem set x
    | Remove x ->
        let present = List.mem x !model in
        model := List.filter (( <> ) x) !model;
        SI.remove set x = present && not (SI.mem set x)
    | Major ->
        Gc.full_major ();
        si_agrees set !model
  in
  List.for_all step ops && si_agrees set !model

(* Values span a range wider than any capacity the set starts with, so
   runs grow it several times, and inserts land at the front, the
   middle and the end. *)
let sorted_ints_qcheck =
  let x = QCheck2.Gen.int_range (-20) 600 in
  qtest ~count:100 "sorted_ints mirrors a sorted list"
    QCheck2.Gen.(
      list_size (int_range 0 400)
        (frequency
           [ (24, map (fun x -> Add x) x);
             (12, map (fun x -> Remove x) x);
             (1, pure Major) ]))
    si_model_prop

let test_sorted_ints_basics () =
  let s = SI.of_sorted_array [| 2; 5; 9 |] in
  Alcotest.(check (list int)) "adopted" [ 2; 5; 9 ] (SI.to_list s);
  check_int "index" 1 (SI.index s 5);
  check_int "absent index" (-1) (SI.index s 4);
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Sorted_ints.of_sorted_array: not strictly ascending")
    (fun () -> ignore (SI.of_sorted_array [| 3; 3 |]));
  Alcotest.check_raises "get out of range"
    (Invalid_argument "Sorted_ints.get: out of range") (fun () ->
      ignore (SI.get s 3));
  SI.clear s;
  check_bool "cleared" true (SI.is_empty s);
  check_bool "re-add after clear" true (SI.add s 7)

(* ---------- Pool ---------- *)

module Pool = Prelude.Pool

let test_pool_map_order () =
  Pool.with_num_domains 4 (fun () ->
      let xs = Array.init 1000 Fun.id in
      let ys = Pool.parallel_map ~chunk:16 (fun x -> x * x) xs in
      Alcotest.(check (array int)) "order preserved"
        (Array.init 1000 (fun i -> i * i))
        ys;
      Alcotest.(check (array int)) "empty" [||]
        (Pool.parallel_map (fun x -> x) [||]))

let test_pool_float_sum_bits () =
  (* Magnitude-spread terms: any re-association changes the bits. *)
  let rng = Rng.create 99 in
  let terms = Array.init 4000 (fun _ -> S.uniform_log rng ~lo:1e-12 ~hi:1e6) in
  let reference = ref 0. in
  Array.iter (fun x -> reference := !reference +. x) terms;
  Pool.with_num_domains 4 (fun () ->
      let summed =
        Pool.for_reduce ~chunk:16 ~init:0.
          ~f:(fun i -> terms.(i))
          ~combine:( +. ) (Array.length terms)
      in
      check_bool "bit-identical float sum" true
        (Int64.equal
           (Int64.bits_of_float !reference)
           (Int64.bits_of_float summed)))

let test_pool_argmax_ties () =
  Pool.with_num_domains 4 (fun () ->
      let scores = [| 1.; 5.; 3.; 5.; 2. |] in
      (match Pool.argmax_float ~chunk:2 ~n:5 (fun i -> scores.(i)) with
      | Some (i, v) ->
          check_int "lowest tied index" 1 i;
          check_float "max value" 5. v
      | None -> Alcotest.fail "expected a maximiser");
      check_bool "empty argmax" true
        (Pool.argmax_float ~n:0 (fun _ -> 0.) = None))

let test_pool_exceptions () =
  Pool.with_num_domains 4 (fun () ->
      Alcotest.check_raises "task exception propagates" (Failure "boom")
        (fun () ->
          ignore
            (Pool.init ~chunk:4 100 (fun i ->
                 if i >= 10 then failwith "boom" else i)));
      (* The pool survives a raising task and keeps producing correct
         results. *)
      let ys = Pool.parallel_map ~chunk:8 (fun x -> x + 1) (Array.init 64 Fun.id) in
      Alcotest.(check (array int)) "reusable after raise"
        (Array.init 64 (fun i -> i + 1))
        ys)

let test_pool_nested () =
  Pool.with_num_domains 3 (fun () ->
      (* A task that itself calls a combinator runs it inline. *)
      let ys =
        Pool.init ~chunk:1 8 (fun i ->
            Pool.for_reduce ~init:0 ~f:Fun.id ~combine:( + ) (i + 1))
      in
      Alcotest.(check (array int)) "nested sums"
        (Array.init 8 (fun i -> i * (i + 1) / 2))
        ys)

let test_pool_domain_count () =
  check_bool "at least one domain" true (Pool.num_domains () >= 1);
  Pool.with_num_domains 5 (fun () ->
      check_int "forced count" 5 (Pool.num_domains ()));
  Pool.with_num_domains 0 (fun () ->
      check_int "clamped to 1" 1 (Pool.num_domains ()))

(* ---------- Table ---------- *)

let test_table_render () =
  let t =
    Prelude.Table.create ~title:"T"
      [ ("name", Prelude.Table.Left); ("value", Prelude.Table.Right) ]
  in
  Prelude.Table.add_row t [ "alpha"; "1" ];
  Prelude.Table.add_row t [ "b"; "22" ];
  let s = Prelude.Table.render t in
  check_bool "has title" true (String.length s > 0 && s.[0] = 'T');
  check_bool "aligns right column" true
    (let lines = String.split_on_char '\n' s in
     List.exists (fun l -> l = "alpha      1") lines);
  Alcotest.check_raises "bad row"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Prelude.Table.add_row t [ "only-one" ])

let suite =
  [ ("approx_equal", `Quick, test_approx_equal);
    ("leq / lt with infinities", `Quick, test_leq);
    ("clamp", `Quick, test_clamp);
    ("sum / kahan_sum", `Quick, test_sums);
    ("fmin/fmax", `Quick, test_minmax);
    ("log2", `Quick, test_log2);
    ("rng determinism", `Quick, test_rng_deterministic);
    ("rng seed sensitivity", `Quick, test_rng_seed_sensitivity);
    ("rng copy and split", `Quick, test_rng_copy_and_split);
    ("rng ranges", `Quick, test_rng_ranges);
    ("rng int unbiased", `Slow, test_rng_int_unbiased);
    ("rng permutation", `Quick, test_rng_permutation);
    ("rng errors", `Quick, test_rng_errors);
    ("zipf pmf", `Quick, test_zipf_pmf);
    ("zipf s=0 uniform", `Quick, test_zipf_uniform_when_s0);
    ("zipf draws match pmf", `Slow, test_zipf_draw_distribution);
    ("exponential mean", `Slow, test_exponential_mean);
    ("normal moments", `Slow, test_normal_moments);
    ("pareto support", `Quick, test_pareto_support);
    ("uniform_log range", `Quick, test_uniform_log_range);
    ("categorical", `Quick, test_categorical);
    ("poisson mean", `Slow, test_poisson_mean);
    ("percentile", `Quick, test_percentile);
    ("summary", `Quick, test_summary);
    ("geometric mean", `Quick, test_geometric_mean);
    ("heap order", `Quick, test_heap_order);
    ("heap empty", `Quick, test_heap_empty);
    heap_qcheck;
    ("pick: rounding cycle", `Quick, test_pick_rounding_cycle);
    ("pick: zero costs, overflow, underflow", `Quick, test_pick_edges);
    ("bitset basics", `Quick, test_bitset_basics);
    ("bitset bounds", `Quick, test_bitset_bounds);
    bitset_qcheck;
    ("sorted_ints basics", `Quick, test_sorted_ints_basics);
    sorted_ints_qcheck;
    ("pool map order", `Quick, test_pool_map_order);
    ("pool float sum bits", `Quick, test_pool_float_sum_bits);
    ("pool argmax ties", `Quick, test_pool_argmax_ties);
    ("pool exceptions", `Quick, test_pool_exceptions);
    ("pool nested calls", `Quick, test_pool_nested);
    ("pool domain count", `Quick, test_pool_domain_count);
    ("table render", `Quick, test_table_render) ]
  @ pick_qcheck
