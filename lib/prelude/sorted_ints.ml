(* Sorted dynamic int vector. Insert/remove shift the tail; the sets
   the engine keeps here are small relative to the slot universe, so
   the shifts stay cheap while iteration — the hot operation — touches
   exactly the members, in ascending order. The shifts are plain loops:
   on an array outside the minor heap [Array.blit] is a C call that
   runs the write barrier per element, where a store into an
   [int array] needs none. *)

type t = { mutable data : int array; mutable len : int }

let create () = { data = [||]; len = 0 }

let of_sorted_array a =
  let n = Array.length a in
  for i = 1 to n - 1 do
    if a.(i - 1) >= a.(i) then
      invalid_arg "Sorted_ints.of_sorted_array: not strictly ascending"
  done;
  { data = Array.copy a; len = n }

let length t = t.len
let is_empty t = t.len = 0

(* Position of the first element >= x (insertion point). *)
let lower_bound t x =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.data.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let index t x =
  let i = lower_bound t x in
  if i < t.len && t.data.(i) = x then i else -1

let mem t x = index t x >= 0

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Sorted_ints.get: out of range";
  t.data.(i)

let ensure_capacity t =
  if t.len = Array.length t.data then begin
    let cap = max 4 (2 * t.len) in
    let data = Array.make cap 0 in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let add t x =
  let i = lower_bound t x in
  if i < t.len && t.data.(i) = x then false
  else begin
    ensure_capacity t;
    let d = t.data in
    for k = t.len downto i + 1 do
      d.(k) <- d.(k - 1)
    done;
    d.(i) <- x;
    t.len <- t.len + 1;
    true
  end

let remove t x =
  let i = lower_bound t x in
  if i >= t.len || t.data.(i) <> x then false
  else begin
    let d = t.data in
    for k = i to t.len - 2 do
      d.(k) <- d.(k + 1)
    done;
    t.len <- t.len - 1;
    true
  end

let clear t = t.len <- 0

let iter t f =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_list t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    acc := t.data.(i) :: !acc
  done;
  !acc

let copy t = { data = Array.sub t.data 0 t.len; len = t.len }

let equal a b =
  a.len = b.len
  &&
  let rec eq i = i = a.len || (a.data.(i) = b.data.(i) && eq (i + 1)) in
  eq 0
