(* Seeded, stationary worlds and delta streams for the benchmark.

   The generator belongs to the benchmark, not to the program: it
   draws from the OCaml standard library's [Random.State] only, so two
   commits of the program are measured on exactly the same inputs.

   Stationary means the stream looks the same at its end as at its
   start, so replan and repair cost do not drift with run length:
   - users (initial and joining) come from one distribution: interests
     drawn by Zipf over a popularity ranking fixed once per workload,
     utilities log-uniform on a fixed scale, loads equal to utilities
     (unit skew) and room for about half of each user's interest;
   - every block of 64 deltas holds each kind in proportion to the
     mix (to within one), in shuffled order, so per-segment work does
     not swing with how many rare kinds a draw happens to hold, and
     with equal join and leave weights the population stays at its
     initial size;
   - leaves pick a uniformly random active slot from a swap-remove
     array;
   - costs are drawn around each stream's initial cost (mean-reverting),
     not as a random walk; budgets swing between two fixed levels
     around their initial values, alternately down and up, so every
     resize moves them by the same amount and half of the resizes
     shrink them. *)

type params = {
  streams : int;
  users : int;
  density : float;  (** mean interests per user over [streams] *)
  mix : float array;  (** weights of join, leave, cost, budget *)
}

let m = 2
let mc = 1
let budget_fraction = 0.25
let zipf_skew = 0.8
let cost_sigma = 0.3
let budget_swing = 0.05

(* Deltas per block of the kind schedule. *)
let block = 64

let log_uniform rng ~lo ~hi = lo *. Float.exp (Random.State.float rng (Float.log (hi /. lo)))

let normal rng =
  let u1 = 1. -. Random.State.float rng 1. and u2 = Random.State.float rng 1. in
  Float.sqrt (-2. *. Float.log u1) *. Float.cos (2. *. Float.pi *. u2)

let log_normal rng ~sigma = Float.exp (sigma *. normal rng)

(* Knuth's method; means here are at most a few dozen. *)
let poisson rng ~mean =
  let l = Float.exp (-.mean) in
  let rec go k p =
    let p = p *. Random.State.float rng 1. in
    if p <= l then k else go (k + 1) p
  in
  go 0 1.

(* Zipf over ranks 0..n-1 as a cumulative table, sampled by bisection. *)
let zipf_cdf n =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for k = 0 to n - 1 do
    acc := !acc +. (1. /. Float.pow (float (k + 1)) zipf_skew);
    cdf.(k) <- !acc
  done;
  Array.map (fun c -> c /. !acc) cdf

let zipf_draw rng cdf =
  let x = Random.State.float rng 1. in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > x then hi := mid else lo := mid + 1
  done;
  !lo

type user = (int * float) list  (** (stream, utility), ascending stream *)

type gen = {
  rng : Random.State.t;
  p : params;
  ranked : int array;  (** streams, most popular first *)
  cdf : float array;
  base_cost : float array array;
  cost : float array array;  (** current, as the engine's view holds it *)
  base_budget : float array;
  budget : float array;
  active : int array;  (** active slots, swap-remove *)
  mutable count : int;
  mutable free : int list;  (** freed slots, most recent first (the view's reuse order) *)
  mutable next_slot : int;
  mutable budget_low : bool;  (** the last resize went to the lower level *)
  credit : float array;  (** per kind, for {!refill} *)
  kinds : int array;  (** the current block's kinds *)
  mutable pos : int;  (** next index into [kinds] *)
}

let draw_user g : user =
  let ns = g.p.streams in
  let want = min ns (1 + poisson g.rng ~mean:(Float.max 0. ((g.p.density *. float ns) -. 1.))) in
  let chosen = Hashtbl.create want in
  let tries = ref 0 in
  while Hashtbl.length chosen < want && !tries < 50 * want do
    incr tries;
    Hashtbl.replace chosen g.ranked.(zipf_draw g.rng g.cdf) ()
  done;
  Hashtbl.fold (fun s () acc -> s :: acc) chosen []
  |> List.sort compare
  |> List.map (fun s -> (s, log_uniform g.rng ~lo:1. ~hi:10.))

(* Room for about half the user's interest, but always for its largest
   stream, so every interest is individually feasible. *)
let capacity (u : user) =
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. u in
  let peak = List.fold_left (fun acc (_, w) -> Float.max acc w) 0. u in
  Float.max peak (0.5 *. total)

let spec_of_user (u : user) : Engine.Delta.user_spec =
  { utility_cap = infinity;
    capacity = Array.make mc (capacity u);
    interests = List.map (fun (s, w) -> (s, w, Array.make mc w)) u }

(* The catalog (stream costs, budgets, popularity ranking) is part of
   the workload's definition and the same for every seed: which streams
   are popular and what they cost sets most of the planner's work, so
   drawing it per seed would make runs of different seeds disagree for
   reasons no change to the program could move. The seed draws the
   population and the delta stream. *)
let create ~seed p =
  let catalog = Random.State.make [| 0xca7a; p.streams |] in
  let ns = p.streams in
  let ranked = Array.init ns Fun.id in
  for i = ns - 1 downto 1 do
    let j = Random.State.int catalog (i + 1) in
    let t = ranked.(i) in
    ranked.(i) <- ranked.(j);
    ranked.(j) <- t
  done;
  let base_cost =
    Array.init ns (fun _ -> Array.init m (fun _ -> log_uniform catalog ~lo:1. ~hi:10.))
  in
  let rng = Random.State.make [| 0x5eed; seed |] in
  let base_budget =
    Array.init m (fun i ->
        let total = ref 0. and biggest = ref 0. in
        Array.iter
          (fun c ->
            total := !total +. c.(i);
            biggest := Float.max !biggest c.(i))
          base_cost;
        Float.max (!total *. budget_fraction) !biggest)
  in
  let cap = (2 * p.users) + 16 in
  { rng;
    p;
    ranked;
    cdf = zipf_cdf ns;
    base_cost;
    cost = Array.map Array.copy base_cost;
    base_budget;
    budget = Array.copy base_budget;
    active = Array.init cap Fun.id;
    count = p.users;
    free = [];
    next_slot = p.users;
    budget_low = false;
    credit = Array.make (Array.length p.mix) 0.;
    kinds = Array.make block 0;
    pos = block }

(* The initial world: [p.users] users from the same distribution as
   the joiners, in slots 0..users-1. *)
let world g =
  let ns = g.p.streams in
  let users = Array.init g.p.users (fun _ -> draw_user g) in
  let zero = Array.make mc 0. in
  let utility =
    Array.map
      (fun u ->
        let row = Array.make ns 0. in
        List.iter (fun (s, w) -> row.(s) <- w) u;
        row)
      users
  in
  Sut.instance ~name:"benchmark"
    ~server_cost:(Array.map Array.copy g.base_cost)
    ~budget:(Array.copy g.base_budget)
    ~load:(Array.map (fun row -> Array.map (fun w -> if w = 0. then zero else Array.make mc w) row) utility)
    ~capacity:(Array.map (fun u -> Array.make mc (capacity u)) users)
    ~utility

let join g =
  let slot =
    match g.free with
    | s :: rest ->
        g.free <- rest;
        s
    | [] ->
        let s = g.next_slot in
        g.next_slot <- s + 1;
        s
  in
  if g.count = Array.length g.active then
    invalid_arg "Workload: population far above its initial size";
  g.active.(g.count) <- slot;
  g.count <- g.count + 1;
  Engine.Delta.User_join (spec_of_user (draw_user g))

let leave g =
  let i = Random.State.int g.rng g.count in
  let slot = g.active.(i) in
  g.count <- g.count - 1;
  g.active.(i) <- g.active.(g.count);
  g.free <- slot :: g.free;
  Engine.Delta.User_leave slot

(* Costs above the current budget would be clamped by the engine; clamp
   here so [cost] tracks the engine's view exactly. *)
let cost_change g =
  let s = Random.State.int g.rng g.p.streams in
  let costs =
    Array.init m (fun i ->
        Float.min g.budget.(i) (g.base_cost.(s).(i) *. log_normal g.rng ~sigma:cost_sigma))
  in
  Array.blit costs 0 g.cost.(s) 0 m;
  Engine.Delta.Stream_cost_change { stream = s; costs }

(* Never below the largest current cost, so a resize does not reshape
   the catalog through the engine's clamp. *)
let budget_resize g =
  g.budget_low <- not g.budget_low;
  let level = if g.budget_low then 1. -. budget_swing else 1. +. budget_swing in
  let budgets =
    Array.init m (fun i ->
        let worst = Array.fold_left (fun acc c -> Float.max acc c.(i)) 0. g.cost in
        Float.max worst (g.base_budget.(i) *. level))
  in
  Array.blit budgets 0 g.budget 0 m;
  Engine.Delta.Budget_resize budgets

(* The kinds of the next [block] deltas: smooth weighted round-robin
   over the mix, so every block holds each kind in proportion to its
   weight (to within one), then shuffled. *)
let refill g =
  let total = Array.fold_left ( +. ) 0. g.p.mix in
  for i = 0 to block - 1 do
    Array.iteri (fun k w -> g.credit.(k) <- g.credit.(k) +. w) g.p.mix;
    let best = ref 0 in
    Array.iteri (fun k c -> if c > g.credit.(!best) then best := k) g.credit;
    g.credit.(!best) <- g.credit.(!best) -. total;
    g.kinds.(i) <- !best
  done;
  for i = block - 1 downto 1 do
    let j = Random.State.int g.rng (i + 1) in
    let t = g.kinds.(i) in
    g.kinds.(i) <- g.kinds.(j);
    g.kinds.(j) <- t
  done;
  g.pos <- 0

let next g =
  if g.pos = block then refill g;
  let kind = g.kinds.(g.pos) in
  g.pos <- g.pos + 1;
  match kind with
  | 0 -> join g
  | 1 when g.count > 0 -> leave g
  | 1 -> join g
  | 2 -> cost_change g
  | _ -> budget_resize g

(* [n] deltas as text lines, the form the benchmark feeds the engine. *)
let deltas g n = Array.init n (fun _ -> Sut.encode (next g))

let active_users g = g.count
