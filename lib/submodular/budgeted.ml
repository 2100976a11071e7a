type result = { chosen : int list; value : float; oracle_calls : int }

let validate ~cost ~budget ground_size =
  if budget < 0. then invalid_arg "Budgeted: negative budget";
  for x = 0 to ground_size - 1 do
    if cost x < 0. then invalid_arg "Budgeted: negative cost"
  done

let greedy ~f ~cost ~budget () =
  let n = f.Fn.ground_size in
  validate ~cost ~budget n;
  let calls = ref 0 in
  let eval set =
    incr calls;
    f.Fn.eval (List.sort_uniq compare set)
  in
  let in_solution = Array.make n false in
  let rec loop chosen value spent =
    let best = ref (-1) and best_gain = ref 0. and best_cost = ref 0. in
    for x = 0 to n - 1 do
      if (not in_solution.(x)) && cost x <= budget -. spent +. 1e-12 then begin
        let gain = eval (x :: chosen) -. value in
        if
          gain > 1e-12
          && (!best < 0
             || Prelude.Pick.better gain (cost x) !best_gain !best_cost)
        then begin
          best := x;
          best_gain := gain;
          best_cost := cost x
        end
      end
    done;
    if !best < 0 then (chosen, value)
    else begin
      in_solution.(!best) <- true;
      loop (!best :: chosen) (value +. !best_gain) (spent +. !best_cost)
    end
  in
  let chosen, value = loop [] (eval []) 0. in
  { chosen = List.sort compare chosen; value; oracle_calls = !calls }

(* Lazy greedy: keep (stale upper bound on marginal, element) in a
   max-heap; refresh only the top. By submodularity a refreshed
   marginal can only be smaller, so when the freshly refreshed top
   stays on top it is the true argmax. *)
let lazy_greedy ~f ~cost ~budget () =
  let n = f.Fn.ground_size in
  validate ~cost ~budget n;
  let calls = ref 0 in
  let eval set =
    incr calls;
    f.Fn.eval (List.sort_uniq compare set)
  in
  (* The heap pops in pick order; entries carry the round at which the
     gain was computed. *)
  let heap =
    Prelude.Heap.create ~cmp:(fun (g1, c1, x1, _) (g2, c2, x2, _) ->
        if Prelude.Pick.precedes g1 c1 x1 g2 c2 x2 then -1
        else if x1 = x2 then 0
        else 1)
  in
  let base_value = eval [] in
  for x = 0 to n - 1 do
    let gain = eval [ x ] -. base_value in
    if gain > 1e-12 then Prelude.Heap.push heap (gain, cost x, x, 0)
  done;
  let round = ref 0 in
  let rec loop chosen value spent =
    match Prelude.Heap.pop heap with
    | None -> (chosen, value)
    | Some (gain, c, x, computed_at) ->
        if c > budget -. spent +. 1e-12 then
          (* Unaffordable now; it can never become affordable again. *)
          loop chosen value spent
        else if computed_at = !round then begin
          (* Fresh top: the true best. *)
          if gain <= 1e-12 then (chosen, value)
          else begin
            incr round;
            loop (x :: chosen) (value +. gain) (spent +. c)
          end
        end
        else begin
          let fresh = eval (x :: chosen) -. value in
          if fresh > 1e-12 then
            Prelude.Heap.push heap (fresh, c, x, !round);
          loop chosen value spent
        end
  in
  let chosen, value = loop [] base_value 0. in
  { chosen = List.sort compare chosen;
    value;
    oracle_calls = !calls }

let best_single ~f ~cost ~budget =
  let calls = ref 0 in
  let best = ref [] and best_value = ref 0. in
  for x = 0 to f.Fn.ground_size - 1 do
    if cost x <= budget +. 1e-12 then begin
      incr calls;
      let v = f.Fn.eval [ x ] in
      if v > !best_value then begin
        best := [ x ];
        best_value := v
      end
    end
  done;
  { chosen = !best; value = !best_value; oracle_calls = !calls }

let greedy_plus_best_single ?(engine = `Lazy) ~f ~cost ~budget () =
  let g =
    match engine with
    | `Plain -> greedy ~f ~cost ~budget ()
    | `Lazy -> lazy_greedy ~f ~cost ~budget ()
  in
  let s = best_single ~f ~cost ~budget in
  let calls = g.oracle_calls + s.oracle_calls in
  if g.value >= s.value then { g with oracle_calls = calls }
  else { s with oracle_calls = calls }

let brute_force ?(max_ground = 22) ~f ~cost ~budget () =
  let n = f.Fn.ground_size in
  if n > max_ground then
    invalid_arg
      (Printf.sprintf "Budgeted.brute_force: ground %d exceeds guard %d" n
         max_ground);
  validate ~cost ~budget n;
  let calls = ref 0 in
  let eval set =
    incr calls;
    f.Fn.eval set
  in
  let best = ref [] and best_value = ref (eval []) in
  let rec go x chosen spent =
    if x = n then begin
      let v = eval (List.rev chosen) in
      if v > !best_value then begin
        best := List.rev chosen;
        best_value := v
      end
    end
    else begin
      if cost x <= budget -. spent +. 1e-12 then
        go (x + 1) (x :: chosen) (spent +. cost x);
      go (x + 1) chosen spent
    end
  in
  go 0 [] 0.;
  { chosen = !best; value = !best_value; oracle_calls = !calls }
