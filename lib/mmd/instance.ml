type t = {
  name : string;
  num_streams : int;
  num_users : int;
  m : int;
  mc : int;
  server_cost : float array array;      (* stream × m *)
  budget : float array;                 (* m *)
  load : float array array array;       (* user × stream × mc *)
  capacity : float array array;         (* user × mc *)
  utility : float array array;          (* user × stream *)
  utility_cap : float array;            (* user *)
  interested_users : int array array;   (* stream -> users, ascending *)
  interesting_streams : int array array;(* user -> streams, ascending *)
  entry_streams : int array array;      (* user -> streams, ascending *)
  stream_total_utility : float array;   (* stream *)
}

let check_nonneg what x =
  if x < 0. || Float.is_nan x then
    invalid_arg (Printf.sprintf "Instance.create: negative or NaN %s" what)

(* Stream -> interested users (ascending) and their summed utility,
   from the per-user rows. Users are visited in ascending order, so
   each column fills in the order a column scan would list it and each
   sum accumulates in that order too. *)
let transpose ~num_streams ~utility interesting_streams =
  let count = Array.make num_streams 0 in
  Array.iter
    (Array.iter (fun s -> count.(s) <- count.(s) + 1))
    interesting_streams;
  let cols = Array.map (fun n -> Array.make n 0) count in
  let totals = Array.make num_streams 0. in
  Array.fill count 0 num_streams 0;
  Array.iteri
    (fun u streams ->
      Array.iter
        (fun s ->
          cols.(s).(count.(s)) <- u;
          count.(s) <- count.(s) + 1;
          totals.(s) <- totals.(s) +. utility.(u).(s))
        streams)
    interesting_streams;
  (cols, totals)

let create ?(name = "unnamed") ?mc ~server_cost ~budget ~load ~capacity
    ~utility ~utility_cap () =
  let num_streams = Array.length server_cost in
  let m = Array.length budget in
  let num_users = Array.length utility in
  let mc =
    match mc with
    | Some v ->
        if v < 0 then invalid_arg "Instance.create: negative mc";
        if num_users > 0 && Array.length capacity.(0) <> v then
          invalid_arg "Instance.create: capacity row length <> mc";
        v
    | None -> if num_users = 0 then 0 else Array.length capacity.(0)
  in
  if Array.length capacity <> num_users then
    invalid_arg "Instance.create: capacity rows <> num_users";
  if Array.length load <> num_users then
    invalid_arg "Instance.create: load rows <> num_users";
  if Array.length utility_cap <> num_users then
    invalid_arg "Instance.create: utility_cap length <> num_users";
  Array.iteri
    (fun s costs ->
      if Array.length costs <> m then
        invalid_arg "Instance.create: server_cost row length <> m";
      Array.iteri
        (fun i c ->
          check_nonneg "server cost" c;
          if c > budget.(i) then
            invalid_arg
              (Printf.sprintf
                 "Instance.create: c_%d(S_%d) = %g exceeds budget %g" i s c
                 budget.(i)))
        costs)
    server_cost;
  Array.iter (fun b -> check_nonneg "budget" b) budget;
  Array.iteri
    (fun u caps ->
      if Array.length caps <> mc then
        invalid_arg "Instance.create: ragged capacity rows";
      Array.iter (fun k -> check_nonneg "capacity" k) caps;
      if Array.length load.(u) <> num_streams then
        invalid_arg "Instance.create: load row length <> num_streams";
      Array.iter
        (fun per_stream ->
          if Array.length per_stream <> mc then
            invalid_arg "Instance.create: load entry length <> mc";
          Array.iter (fun k -> check_nonneg "load" k) per_stream)
        load.(u);
      if Array.length utility.(u) <> num_streams then
        invalid_arg "Instance.create: utility row length <> num_streams";
      Array.iter (fun w -> check_nonneg "utility" w) utility.(u);
      check_nonneg "utility cap" utility_cap.(u))
    capacity;
  (* One pass over the dense input: enforce the paper's assumption (a
     stream that individually violates some capacity of a user yields
     zero utility for that user) and record each user's sparse rows. *)
  let utility = Array.map Array.copy utility in
  let interesting_streams = Array.make num_users [||] in
  let entry_streams = Array.make num_users [||] in
  for u = 0 to num_users - 1 do
    let w = utility.(u) and caps = capacity.(u) in
    let interesting = ref [] and entries = ref [] in
    for s = num_streams - 1 downto 0 do
      let row = load.(u).(s) in
      let has_load = ref false in
      for j = 0 to mc - 1 do
        if row.(j) <> 0. then has_load := true;
        if row.(j) > caps.(j) then w.(s) <- 0.
      done;
      if w.(s) > 0. then interesting := s :: !interesting;
      if w.(s) > 0. || !has_load then entries := s :: !entries
    done;
    interesting_streams.(u) <- Array.of_list !interesting;
    entry_streams.(u) <- Array.of_list !entries
  done;
  let interested_users, stream_total_utility =
    transpose ~num_streams ~utility interesting_streams
  in
  { name; num_streams; num_users; m; mc; server_cost; budget; load;
    capacity; utility; utility_cap; interested_users; interesting_streams;
    entry_streams; stream_total_utility }

let restrict ?name t ~users ~budget =
  if Array.length budget <> t.m then
    invalid_arg "Instance.restrict: budget length <> m";
  if Array.exists (fun b -> b < 0. || Float.is_nan b) budget then
    invalid_arg "Instance.restrict: negative or NaN budget";
  Array.iteri
    (fun v u ->
      if u < 0 || u >= t.num_users || (v > 0 && u <= users.(v - 1)) then
        invalid_arg "Instance.restrict: users not ascending in range")
    users;
  let pick a = Array.map (fun u -> a.(u)) users in
  let utility = pick t.utility in
  let interesting_streams = pick t.interesting_streams in
  let interested_users, stream_total_utility =
    transpose ~num_streams:t.num_streams ~utility interesting_streams
  in
  { t with
    name = Option.value name ~default:t.name;
    num_users = Array.length users;
    server_cost =
      Array.map
        (Array.mapi (fun i c -> Float.min c budget.(i)))
        t.server_cost;
    budget = Array.copy budget;
    load = pick t.load;
    capacity = pick t.capacity;
    utility;
    utility_cap = pick t.utility_cap;
    interested_users;
    interesting_streams;
    entry_streams = pick t.entry_streams;
    stream_total_utility }

let name t = t.name
let num_streams t = t.num_streams
let num_users t = t.num_users
let m t = t.m
let mc t = t.mc
let server_cost t s i = t.server_cost.(s).(i)
let budget t i = t.budget.(i)
let load t u s j = t.load.(u).(s).(j)
let capacity t u j = t.capacity.(u).(j)
let utility t u s = t.utility.(u).(s)
let utility_cap t u = t.utility_cap.(u)
let interested_users t s = t.interested_users.(s)
let interesting_streams t u = t.interesting_streams.(u)
let entry_streams t u = t.entry_streams.(u)
let stream_total_utility t s = t.stream_total_utility.(s)

let size t =
  let edges =
    Array.fold_left
      (fun acc users -> acc + Array.length users)
      0 t.interested_users
  in
  edges + t.num_streams + t.num_users

let max_server_cost t i =
  let best = ref 0. in
  for s = 0 to t.num_streams - 1 do
    best := Float.max !best t.server_cost.(s).(i)
  done;
  !best

let is_smd_shaped t = t.m = 1 && t.mc <= 1

let pp ppf t =
  Format.fprintf ppf "%s: %d streams, %d users, m=%d, mc=%d" t.name
    t.num_streams t.num_users t.m t.mc
