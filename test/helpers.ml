(* Shared helpers for the test suites. *)

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose = Alcotest.(check (float 1e-6))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* Build a small SMD instance directly from per-user utility rows
   (unit skew: loads equal utilities, capacity = utility cap). *)
let smd ?(budget = infinity) ?caps ~costs ~utilities () =
  let ns = Array.length costs in
  let nu = Array.length utilities in
  let caps = match caps with Some c -> c | None -> Array.make nu infinity in
  Mmd.Instance.create ~name:"test-smd"
    ~server_cost:(Array.map (fun c -> [| c |]) costs)
    ~budget:[| budget |]
    ~load:
      (Array.init nu (fun u ->
           Array.init ns (fun s -> [| utilities.(u).(s) |])))
    ~capacity:(Array.map (fun k -> [| k |]) caps)
    ~utility:utilities
    ~utility_cap:(Array.copy caps)
    ()

(* A deterministic family of small random unit-skew SMD instances. *)
let random_smd ~seed ~num_streams ~num_users =
  let rng = Prelude.Rng.create seed in
  Workloads.Generator.smd_unit_skew rng ~num_streams ~num_users

(* A deterministic family of small random MMD instances. *)
let random_mmd ~seed ~num_streams ~num_users ~m ~mc ~skew =
  let rng = Prelude.Rng.create seed in
  Workloads.Generator.instance rng
    { Workloads.Generator.default with num_streams; num_users; m; mc; skew }

let utility = Mmd.Assignment.utility
let is_feasible inst a = Mmd.Assignment.is_feasible inst a

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  go 0

(* ---------- An exact cost-effectiveness oracle ---------- *)

(* Exact comparisons of products of floats in integer arithmetic,
   sharing no code with [Prelude.Pick]: a finite float is an integer
   significand below 2^53 and a binary exponent, read from its bits; a
   product of two significands is summed from products of their 27-bit
   halves (each below 2^54, exact in an int) into base-2^27 limbs. *)

let float_parts x =
  let bits = Int64.bits_of_float (Float.abs x) in
  let biased = Int64.to_int (Int64.shift_right_logical bits 52) in
  let frac = Int64.to_int (Int64.logand bits 0xF_FFFF_FFFF_FFFFL) in
  if biased = 0 then (frac, -1074) else (frac lor (1 lsl 52), biased - 1075)

let limb_bits = 27
let limb_mask = (1 lsl limb_bits) - 1

(* m1·m2·2^shift as [n] little-endian base-2^27 limbs. *)
let limbs_of_product ~n m1 m2 shift =
  let a = Array.make n 0 in
  let add v pos =
    let i = pos / limb_bits and r = pos mod limb_bits in
    a.(i) <- a.(i) + ((v land limb_mask) lsl r);
    a.(i + 1) <- a.(i + 1) + ((v lsr limb_bits) lsl r)
  in
  let h1 = m1 lsr limb_bits and l1 = m1 land limb_mask in
  let h2 = m2 lsr limb_bits and l2 = m2 land limb_mask in
  add (l1 * l2) shift;
  add (h1 * l2) (shift + limb_bits);
  add (l1 * h2) (shift + limb_bits);
  add (h1 * h2) (shift + (2 * limb_bits));
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let t = a.(i) + !carry in
    a.(i) <- t land limb_mask;
    carry := t lsr limb_bits
  done;
  a

(* The sign of |x|·|y| - |x'|·|y'| for finite floats. *)
let compare_products x y x' y' =
  let zero a b = a = 0. || b = 0. in
  match (zero x y, zero x' y') with
  | true, true -> 0
  | true, false -> -1
  | false, true -> 1
  | false, false ->
      let mx, ex = float_parts x and my, ey = float_parts y in
      let mx', ex' = float_parts x' and my', ey' = float_parts y' in
      let e = ex + ey and e' = ex' + ey' in
      let low = min e e' in
      let n = ((max e e' - low + 110) / limb_bits) + 3 in
      let a = limbs_of_product ~n mx my (e - low) in
      let b = limbs_of_product ~n mx' my' (e' - low) in
      let rec from i =
        if i < 0 then 0
        else if a.(i) <> b.(i) then compare a.(i) b.(i)
        else from (i - 1)
      in
      from (n - 1)

(* [w·c' > w'·c] exactly, for finite [w], [w'] and finite [c], [c'] > 0. *)
let exact_cross_gt w c w' c' =
  let sign v = if v > 0. then 1 else if v < 0. then -1 else 0 in
  let s = sign w and s' = sign w' in
  if s <> s' then s > s'
  else s * compare_products w c' w' c > 0

(* The greedy's cost-effectiveness order over entries (marginal w,
   cost c >= 0), finite: a free entry with a positive marginal is
   infinitely effective, the larger marginal first; any other entry
   is effective w/c, a free one 0. *)
let exact_better w c w' c' =
  let free w c = c = 0. && w > 0. in
  match (free w c, free w' c') with
  | true, true -> w > w'
  | true, false -> true
  | false, true -> false
  | false, false ->
      let num w c = if c = 0. then 0. else w in
      let den c = if c = 0. then 1. else c in
      exact_cross_gt (num w c) (den c) (num w' c') (den c')
