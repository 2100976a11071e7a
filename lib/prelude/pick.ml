(* [a·b > a'·b'] exactly, for positive finite operands whose rounded
   products tie at zero, at infinity or below the range where an [fma]
   residual is exact. Split off the binary exponents ([a = m·2^e], [m]
   in [0.5, 1)): each product of mantissas lies in [0.25, 1), so
   products whose exponents differ by two or more are ordered by
   exponent. Otherwise doubling one mantissa brings both to one
   exponent, where products of mantissas in [0.5, 2) and their [fma]
   residuals are exact. *)
let mag_gt a b a' b' =
  let ma, ea = Float.frexp a and mb, eb = Float.frexp b in
  let ma', ea' = Float.frexp a' and mb', eb' = Float.frexp b' in
  let e = ea + eb and e' = ea' + eb' in
  if e >= e' + 2 then true
  else if e' >= e + 2 then false
  else begin
    let ma = if e > e' then 2. *. ma else ma in
    let ma' = if e' > e then 2. *. ma' else ma' in
    let p = ma *. mb and q = ma' *. mb' in
    p > q || (p = q && Float.fma ma mb (-.p) > Float.fma ma' mb' (-.q))
  end

(* [w·c' > w'·c] for nonzero [w], [w'] and positive finite [c], [c'],
   where the rounded products tie outside the [fma]-exact range. An
   infinite [w] makes [w·c'] that infinity exactly. *)
let cross_gt_slow w c w' c' =
  if not (Float.is_finite w && Float.is_finite w') then
    if Float.is_finite w then w' < 0.
    else if Float.is_finite w' then w > 0.
    else w > w'
  else if (w > 0.) <> (w' > 0.) then w > 0.
  else if w > 0. then mag_gt w c' w' c
  else mag_gt (-.w') c (-.w) c'

(* [w·c' > w'·c] exactly, for positive finite [c], [c']. Rounding is
   monotone, so rounded products that differ are in the exact order.
   On a rounded tie [p = q] of normal size, [w·c' = p + fma w c' (-p)]
   exactly (the error of a product is representable once the product
   is at least 2^-958), so the residuals decide. A zero marginal makes
   its product exactly zero. What is left, ties that overflowed or
   fell toward the subnormals, goes to [cross_gt_slow]: only there do
   the floats leave registers. *)
let[@inline] cross_gt w c w' c' =
  let p = w *. c' and q = w' *. c in
  if p <> q then p > q
  else if Float.abs p >= 0x1p-958 && Float.abs p < infinity then
    Float.fma w c' (-.p) > Float.fma w' c (-.q)
  else if w = 0. || w' = 0. then w' < 0. || (w' = 0. && w > 0.)
  else cross_gt_slow w c w' c'

(* A zero-cost entry with a positive marginal outranks every priced
   one, larger marginal first; without one it counts as effectiveness
   0, like a priced entry without marginal. *)
let[@inline] better w c w' c' =
  if c = 0. then if c' = 0. then w > 0. && w > w' else w > 0. || w' < 0.
  else if c' = 0. then w' <= 0. && w > 0.
  else cross_gt w c w' c'

(* The id is read only on a tie. Testing it first puts a branch that
   goes either way at random in front of every comparison: on the
   benchmark's [steady] workload that cost about 10% of ingest
   (2-core x86-64 host). *)
let[@inline] precedes w c s w' c' s' =
  better w c w' c' || ((not (better w' c' w c)) && s < s')

let[@inline] precedes_in (w : float array) (c : float array) a b =
  precedes w.(a) c.(a) a w.(b) c.(b) b

(* Binary-heap sifts over [ids], the first id in pick order at the
   root. The order is total, so any sift path gives the same root. *)
let[@inline] swap (ids : int array) i j =
  let tmp = ids.(i) in
  ids.(i) <- ids.(j);
  ids.(j) <- tmp

let sift_up w c ids i =
  let i = ref i in
  while !i > 0 && precedes_in w c ids.(!i) ids.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    swap ids !i parent;
    i := parent
  done

let sift_down w c ids len i =
  let i = ref i and continue_ = ref true in
  while !continue_ do
    let left = (2 * !i) + 1 and right = (2 * !i) + 2 in
    let first = ref !i in
    if left < len && precedes_in w c ids.(left) ids.(!first) then
      first := left;
    if right < len && precedes_in w c ids.(right) ids.(!first) then
      first := right;
    if !first <> !i then begin
      swap ids !i !first;
      i := !first
    end
    else continue_ := false
  done
