let default_eps = 1e-9

let scale_of a b = Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let approx_equal ?(eps = default_eps) a b =
  if a = b then true
  else if Float.is_finite a && Float.is_finite b then
    Float.abs (a -. b) <= eps *. scale_of a b
  else false

let leq ?(eps = default_eps) a b =
  if a <= b then true
  else if Float.is_finite a && Float.is_finite b then
    a <= b +. (eps *. scale_of a b)
  else false
let geq ?(eps = default_eps) a b = leq ~eps b a
let lt ?(eps = default_eps) a b = a < b && not (approx_equal ~eps a b)
let gt ?(eps = default_eps) a b = lt ~eps b a

let clamp ~lo ~hi x =
  if lo > hi then invalid_arg "Float_ops.clamp: lo > hi";
  Float.max lo (Float.min hi x)

let log2 x = log x /. log 2.

let sum a = Array.fold_left ( +. ) 0. a

let kahan_sum a =
  let total = ref 0. and comp = ref 0. in
  for i = 0 to Array.length a - 1 do
    let y = a.(i) -. !comp in
    let t = !total +. y in
    comp := t -. !total -. y;
    total := t
  done;
  !total

let fmin_array a =
  if Array.length a = 0 then invalid_arg "Float_ops.fmin_array: empty";
  Array.fold_left Float.min a.(0) a

let fmax_array a =
  if Array.length a = 0 then invalid_arg "Float_ops.fmax_array: empty";
  Array.fold_left Float.max a.(0) a
