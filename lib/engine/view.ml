module I = Mmd.Instance
module SI = Prelude.Sorted_ints

(* Per-stream interest incidence, structure-of-arrays: the slots with
   positive utility for the stream (ascending), with their utilities
   and load rows in parallel contiguous arrays. This is the planner's
   inner-loop data: one marginal evaluation walks [ids]/[w]/[loads]
   linearly instead of doing a per-(user, stream, measure) binary
   search through the slot-side sparse tables. The membership set is
   exactly the old [interested] sorted vector, so iteration order —
   and with it every float accumulation in the planner — is unchanged
   to the bit. Every entry's load row fits its slot's capacity under
   plain [<=]: an interest that exceeds it has zero utility and never
   enters (see [install_spec], and [Instance.create] for the initial
   users), and a slot's capacity changes only when the slot is
   reinstalled. The planner's [best_single] relies on it. *)
module Inc = struct
  type t = {
    mutable ids : int array;  (* ascending slot ids; first [len] live *)
    mutable w : float array;  (* parallel: utility of ids.(i) *)
    mutable loads : float array;  (* parallel, flattened: i*mc + j *)
    mutable len : int;
  }

  let of_arrays ~ids ~w ~loads =
    { ids; w; loads; len = Array.length ids }

  let copy t =
    { ids = Array.copy t.ids;
      w = Array.copy t.w;
      loads = Array.copy t.loads;
      len = t.len }

  (* First index with ids.(i) >= u, in [0, len]. *)
  let lower_bound t u =
    let lo = ref 0 and hi = ref t.len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.ids.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

  let ensure t ~mc n =
    if Array.length t.ids < n then begin
      let cap = max 4 (max n (2 * Array.length t.ids)) in
      let ids' = Array.make cap 0 in
      Array.blit t.ids 0 ids' 0 t.len;
      t.ids <- ids';
      let w' = Array.make cap 0. in
      Array.blit t.w 0 w' 0 t.len;
      t.w <- w';
      let loads' = Array.make (cap * mc) 0. in
      Array.blit t.loads 0 loads' 0 (t.len * mc);
      t.loads <- loads'
    end

  (* Insert slot [u] (not already present) with utility [wu] and the
     load row [row.(off) .. row.(off+mc-1)]. The ids shift by loop: an
     [Array.blit] of an int array outside the minor heap runs the
     write barrier per element. The float arrays have none to run. *)
  let add t ~mc u wu row off =
    let pos = lower_bound t u in
    ensure t ~mc (t.len + 1);
    let ids = t.ids in
    for k = t.len downto pos + 1 do
      ids.(k) <- ids.(k - 1)
    done;
    Array.blit t.w pos t.w (pos + 1) (t.len - pos);
    Array.blit t.loads (pos * mc) t.loads ((pos + 1) * mc)
      ((t.len - pos) * mc);
    t.ids.(pos) <- u;
    t.w.(pos) <- wu;
    Array.blit row off t.loads (pos * mc) mc;
    t.len <- t.len + 1

  let remove t ~mc u =
    let pos = lower_bound t u in
    if pos < t.len && t.ids.(pos) = u then begin
      let ids = t.ids in
      for k = pos to t.len - 2 do
        ids.(k) <- ids.(k + 1)
      done;
      Array.blit t.w (pos + 1) t.w pos (t.len - pos - 1);
      Array.blit t.loads ((pos + 1) * mc) t.loads (pos * mc)
        ((t.len - pos - 1) * mc);
      t.len <- t.len - 1
    end

  let iter t f =
    for i = 0 to t.len - 1 do
      f t.ids.(i)
    done

  let to_list t = List.init t.len (fun i -> t.ids.(i))
end

(* Slot state is sparse over the user's interest set: a sorted stream
   array with parallel utility and (flattened) load rows, instead of
   dense length-[num_streams] arrays. At production scale the dense
   layout is what caps the population — 10k streams of per-slot floats
   is ~400 KB per user, i.e. hundreds of GB at a million users — while
   a user only ever touches a handful of streams. Every accessor keeps
   the dense semantics: a stream without a stored entry reads as 0.

   Capacities and utility caps live in flat slot-major arrays on the
   view (not here): the planner reads them inside the marginal loop,
   and one contiguous float array beats a pointer per slot. *)
type slot = {
  mutable active : bool;
  mutable streams : int array;
      (* ascending, distinct: every stream with a stored entry
         (positive utility and/or a nonzero load row) *)
  mutable wutil : float array;  (* parallel to [streams] *)
  mutable loads : float array;  (* parallel, flattened: index*mc + j *)
  mutable interests : int list;  (* streams with positive utility, asc *)
}

type t = {
  name : string;
  num_streams : int;
  m : int;
  mc : int;
  cost : float array array;  (* stream x m *)
  budget : float array;  (* m *)
  mutable slots : slot array;
  mutable num_slots : int;
  mutable capacity : float array;
      (* flat slot-major: slot*mc + j; length = |slots| * mc *)
  mutable utility_caps : float array;  (* per slot; length = |slots| *)
  mutable free : int list;  (* inactive slots available for reuse *)
  inc : Inc.t array;
  (* stream -> interested active slots with parallel utility/load
     arrays. Sorted by slot id, not hashed: iteration must be in
     ascending slot order so that float accumulation in the planner is
     independent of the join/leave history — a restored view and the
     live view it snapshotted have the same members but different
     insertion orders, and order-dependent summation would make
     recovery diverge by an ulp. (Not a bitset either: iteration must
     cost the membership, not the slot universe, once views hold a
     million slots.) *)
  mutable active_count : int;
  mutable version : int;
}

type applied =
  | Joined of int
  | Left of int
  | Cost_changed of int
  | Budgets_resized

let fresh_slot () =
  { active = false; streams = [||]; wutil = [||]; loads = [||]; interests = [] }

(* Rank of stream [s] in the slot's sparse entry table, or -1. *)
let entry_index sl s =
  let lo = ref 0 and hi = ref (Array.length sl.streams) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if sl.streams.(mid) < s then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length sl.streams && sl.streams.(!lo) = s then !lo else -1

let of_instance inst =
  let num_streams = I.num_streams inst in
  let m = I.m inst and mc = I.mc inst in
  let nu = I.num_users inst in
  let capacity = Array.make (nu * mc) 0. in
  let utility_caps = Array.make nu 0. in
  let slots =
    Array.init nu (fun u ->
        let streams = Array.copy (I.entry_streams inst u) in
        let loads = Array.make (Array.length streams * mc) 0. in
        Array.iteri
          (fun i s ->
            for j = 0 to mc - 1 do
              loads.((i * mc) + j) <- I.load inst u s j
            done)
          streams;
        for j = 0 to mc - 1 do
          capacity.((u * mc) + j) <- I.capacity inst u j
        done;
        utility_caps.(u) <- I.utility_cap inst u;
        { active = true;
          streams;
          wutil = Array.map (fun s -> I.utility inst u s) streams;
          loads;
          interests = Array.to_list (I.interesting_streams inst u) })
  in
  let inc =
    Array.init num_streams (fun s ->
        let us = I.interested_users inst s in
        let n = Array.length us in
        let loads = Array.make (n * mc) 0. in
        Array.iteri
          (fun i u ->
            for j = 0 to mc - 1 do
              loads.((i * mc) + j) <- I.load inst u s j
            done)
          us;
        Inc.of_arrays ~ids:(Array.copy us)
          ~w:(Array.map (fun u -> I.utility inst u s) us)
          ~loads)
  in
  { name = I.name inst;
    num_streams;
    m;
    mc;
    cost =
      Array.init num_streams (fun s ->
          Array.init m (fun i -> I.server_cost inst s i));
    budget = Array.init m (fun i -> I.budget inst i);
    slots;
    num_slots = nu;
    capacity;
    utility_caps;
    free = [];
    inc;
    active_count = nu;
    version = 0 }

let copy t =
  { t with
    cost = Array.map Array.copy t.cost;
    budget = Array.copy t.budget;
    slots =
      Array.map
        (fun sl ->
          { sl with
            streams = Array.copy sl.streams;
            wutil = Array.copy sl.wutil;
            loads = Array.copy sl.loads })
        t.slots;
    capacity = Array.copy t.capacity;
    utility_caps = Array.copy t.utility_caps;
    free = t.free;
    inc = Array.map Inc.copy t.inc }

let name t = t.name
let num_streams t = t.num_streams
let m t = t.m
let mc t = t.mc
let num_slots t = t.num_slots
let active_count t = t.active_count
let is_active t slot = slot >= 0 && slot < t.num_slots && t.slots.(slot).active

let active_slots t =
  let acc = ref [] in
  for u = t.num_slots - 1 downto 0 do
    if t.slots.(u).active then acc := u :: !acc
  done;
  !acc

let budget t i = t.budget.(i)
let server_cost t s i = t.cost.(s).(i)

let utility t slot s =
  let sl = t.slots.(slot) in
  let i = entry_index sl s in
  if i < 0 then 0. else sl.wutil.(i)

let load t slot s j =
  let sl = t.slots.(slot) in
  let i = entry_index sl s in
  if i < 0 then 0. else sl.loads.((i * t.mc) + j)

let capacity t slot j = t.capacity.((slot * t.mc) + j)
let utility_cap t slot = t.utility_caps.(slot)
let interests t slot = t.slots.(slot).interests

let user_spec t slot =
  if not (is_active t slot) then invalid_arg "View.user_spec: inactive slot";
  let sl = t.slots.(slot) in
  { Delta.utility_cap = t.utility_caps.(slot);
    capacity = Array.sub t.capacity (slot * t.mc) t.mc;
    interests =
      List.init (Array.length sl.streams) (fun i ->
          (sl.streams.(i), sl.wutil.(i), Array.sub sl.loads (i * t.mc) t.mc))
  }

let interested t s = Inc.to_list t.inc.(s)
let iter_interested t s f = Inc.iter t.inc.(s) f
let version t = t.version

(* Planner hot-loop surface: the raw incidence and capacity arrays.
   Read-only by contract; re-fetch after any [apply] — joins may
   reallocate them. Only the first [inc_len] entries (and the first
   [num_slots] slot rows) are meaningful. *)
let inc_len t s = t.inc.(s).Inc.len
let inc_ids t s = t.inc.(s).Inc.ids
let inc_w t s = t.inc.(s).Inc.w
let inc_loads t s = t.inc.(s).Inc.loads
let capacity_flat t = t.capacity
let utility_caps t = t.utility_caps
let budgets t = t.budget
let cost_row t s = t.cost.(s)

let check_nonneg what x =
  if x < 0. || Float.is_nan x then
    invalid_arg (Printf.sprintf "View.apply: negative or NaN %s" what)

let grow t =
  let cap = Array.length t.slots in
  if t.num_slots = cap then begin
    let cap' = max 8 (2 * cap) in
    let slots' =
      Array.init cap' (fun i -> if i < cap then t.slots.(i) else fresh_slot ())
    in
    t.slots <- slots';
    let capacity' = Array.make (cap' * t.mc) 0. in
    Array.blit t.capacity 0 capacity' 0 (cap * t.mc);
    t.capacity <- capacity';
    let caps' = Array.make cap' 0. in
    Array.blit t.utility_caps 0 caps' 0 cap;
    t.utility_caps <- caps'
  end

let clear_slot t u =
  let sl = t.slots.(u) in
  List.iter (fun s -> Inc.remove t.inc.(s) ~mc:t.mc u) sl.interests;
  sl.streams <- [||];
  sl.wutil <- [||];
  sl.loads <- [||];
  Array.fill t.capacity (u * t.mc) t.mc 0.;
  t.utility_caps.(u) <- 0.;
  sl.interests <- [];
  sl.active <- false

let check_spec t (spec : Delta.user_spec) =
  check_nonneg "utility cap" spec.utility_cap;
  if Array.length spec.capacity <> t.mc then
    invalid_arg "View.apply: join capacity arity <> mc";
  Array.iter (check_nonneg "capacity") spec.capacity;
  List.iter
    (fun (s, w, loads) ->
      if s < 0 || s >= t.num_streams then
        invalid_arg "View.apply: join interest stream out of range";
      check_nonneg "utility" w;
      if Array.length loads <> t.mc then
        invalid_arg "View.apply: join loads arity <> mc";
      Array.iter (check_nonneg "load") loads)
    spec.interests

(* Install [spec] into slot [u], exactly as a join into a fresh slot
   would. The slot may currently be active (its previous entries are
   dropped first) — checkpoint restore reinstalls churned slots this
   way. *)
let install_spec t u (spec : Delta.user_spec) =
  let sl = t.slots.(u) in
  if sl.active then
    List.iter (fun s -> Inc.remove t.inc.(s) ~mc:t.mc u) sl.interests
  else t.active_count <- t.active_count + 1;
  sl.active <- true;
  t.utility_caps.(u) <- spec.utility_cap;
  Array.blit spec.capacity 0 t.capacity (u * t.mc) t.mc;
  (* Merge the spec entries in order, replicating the dense-layout
     semantics for duplicate streams: the last load row always wins,
     while the utility keeps the last *positive* value. *)
  let merged = Hashtbl.create (List.length spec.interests) in
  let order = ref [] in
  List.iter
    (fun (s, w, loads) ->
      (* Paper assumption: a stream that individually violates a
         capacity yields zero utility for this user. *)
      let violates = ref false in
      Array.iteri
        (fun j k -> if k > spec.capacity.(j) then violates := true)
        loads;
      let w = if !violates then 0. else w in
      (match Hashtbl.find_opt merged s with
      | None ->
          Hashtbl.add merged s (w, loads);
          order := s :: !order
      | Some (w0, _) -> Hashtbl.replace merged s ((if w > 0. then w else w0), loads)))
    spec.interests;
  let streams = List.sort_uniq compare !order |> Array.of_list in
  let k = Array.length streams in
  let wutil = Array.make k 0. and loads = Array.make (k * t.mc) 0. in
  let interests = ref [] in
  Array.iteri
    (fun i s ->
      let w, row = Hashtbl.find merged s in
      (* A later duplicate's row can exceed the capacity where the
         utility kept is an earlier entry's: test the merged row too,
         as [Instance.create] tests its dense rows. So every incidence
         entry's load row fits its slot's capacity under plain [<=],
         which the planner's [best_single] relies on. *)
      let w =
        if Array.exists2 (fun k c -> k > c) row spec.capacity then 0. else w
      in
      wutil.(i) <- w;
      Array.blit row 0 loads (i * t.mc) t.mc;
      if w > 0. then begin
        Inc.add t.inc.(s) ~mc:t.mc u w row 0;
        interests := s :: !interests
      end)
    streams;
  sl.streams <- streams;
  sl.wutil <- wutil;
  sl.loads <- loads;
  sl.interests <- List.rev !interests

let join t (spec : Delta.user_spec) =
  check_spec t spec;
  let u =
    match t.free with
    | slot :: rest ->
        t.free <- rest;
        slot
    | [] ->
        grow t;
        let slot = t.num_slots in
        t.num_slots <- t.num_slots + 1;
        slot
  in
  install_spec t u spec;
  u

let leave t u =
  if not (is_active t u) then
    invalid_arg (Printf.sprintf "View.apply: leave of inactive slot %d" u);
  clear_slot t u;
  t.free <- u :: t.free;
  t.active_count <- t.active_count - 1

let set_costs t s costs =
  if s < 0 || s >= t.num_streams then
    invalid_arg "View.apply: cost change stream out of range";
  if Array.length costs <> t.m then
    invalid_arg "View.apply: cost arity <> m";
  (* The whole row is checked before the first write: a refused change
     leaves the view as it was. *)
  Array.iter (check_nonneg "cost") costs;
  Array.iteri
    (fun i c ->
      (* Standing assumption: every stream fits every budget alone. *)
      t.cost.(s).(i) <- Float.min c t.budget.(i))
    costs

let set_budgets t budgets =
  if Array.length budgets <> t.m then
    invalid_arg "View.apply: budget arity <> m";
  Array.iter (check_nonneg "budget") budgets;
  Array.blit budgets 0 t.budget 0 t.m;
  for s = 0 to t.num_streams - 1 do
    for i = 0 to t.m - 1 do
      if t.cost.(s).(i) > t.budget.(i) then t.cost.(s).(i) <- t.budget.(i)
    done
  done

let apply t delta =
  let applied =
    match (delta : Delta.t) with
    | User_join spec -> Joined (join t spec)
    | User_leave slot ->
        leave t slot;
        Left slot
    | Stream_cost_change { stream; costs } ->
        set_costs t stream costs;
        Cost_changed stream
    | Budget_resize budgets ->
        set_budgets t budgets;
        Budgets_resized
  in
  t.version <- t.version + 1;
  applied

let materialize t =
  let nu = t.num_slots in
  I.create ~name:t.name
    ~server_cost:(Array.map Array.copy (Array.sub t.cost 0 t.num_streams))
    ~budget:(Array.copy t.budget)
    ~load:
      (Array.init nu (fun u ->
           let sl = t.slots.(u) in
           let rows =
             Array.init t.num_streams (fun _ -> Array.make t.mc 0.)
           in
           Array.iteri
             (fun i s ->
               for j = 0 to t.mc - 1 do
                 rows.(s).(j) <- sl.loads.((i * t.mc) + j)
               done)
             sl.streams;
           rows))
    ~capacity:(Array.init nu (fun u -> Array.sub t.capacity (u * t.mc) t.mc))
    ~utility:
      (Array.init nu (fun u ->
           let sl = t.slots.(u) in
           let row = Array.make t.num_streams 0. in
           Array.iteri (fun i s -> row.(s) <- sl.wutil.(i)) sl.streams;
           row))
    ~utility_cap:(Array.sub t.utility_caps 0 nu)
    ()

let free_list t = t.free

(* Raw restore primitives for checkpoint-increment recovery: they
   mutate slot state directly, outside the delta path, and leave the
   free list to be installed wholesale by [set_free_raw] afterwards.
   Only [Checkpoint] should use them. *)

let ensure_slots_raw t n =
  while t.num_slots < n do
    grow t;
    t.num_slots <- t.num_slots + 1
  done;
  t.version <- t.version + 1

let restore_slot t u spec =
  if u < 0 || u >= t.num_slots then
    invalid_arg "View.restore_slot: slot out of range";
  check_spec t spec;
  install_spec t u spec;
  t.version <- t.version + 1

let clear_slot_raw t u =
  if u < 0 || u >= t.num_slots then
    invalid_arg "View.clear_slot_raw: slot out of range";
  if t.slots.(u).active then begin
    clear_slot t u;
    t.active_count <- t.active_count - 1
  end;
  t.version <- t.version + 1

let set_free_raw t order =
  if
    List.length order <> t.num_slots - t.active_count
    || List.exists
         (fun u -> u < 0 || u >= t.num_slots || t.slots.(u).active)
         order
    || List.length (List.sort_uniq compare order) <> List.length order
  then invalid_arg "View.set_free_raw: not a permutation of the free slots";
  t.free <- order;
  t.version <- t.version + 1
