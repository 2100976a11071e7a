let max_domains = 64

let env_default =
  lazy
    (match Sys.getenv_opt "VDMC_DOMAINS" with
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n when n >= 1 -> Some (min n max_domains)
        | _ -> None)
    | None -> None)

let override = ref None

let num_domains () =
  match !override with
  | Some n -> n
  | None -> (
      match Lazy.force env_default with
      | Some n -> n
      | None -> max 1 (Domain.recommended_domain_count () - 1))

let set_num_domains n =
  override := Option.map (fun n -> max 1 (min max_domains n)) n

(* True while the current domain is executing a pool task; nested
   parallel calls then run inline, which both avoids deadlock (the
   outer region blocks the queue) and keeps composition deterministic. *)
let busy_key = Domain.DLS.new_key (fun () -> ref false)
let busy () = !(Domain.DLS.get busy_key)

(* A region is one batch of tasks sharing an index cursor. Workers and
   the submitting domain all pull from [next]; the task that brings
   [pending] to zero clears the region slot and wakes the submitter. *)
type region = {
  tasks : (unit -> unit) array;
  next : int Atomic.t;
  pending : int Atomic.t;
}

type pool = {
  mutex : Mutex.t;
  work : Condition.t;  (* workers wait here for a region *)
  finished : Condition.t;  (* submitters wait here for completion *)
  mutable region : region option;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let drain p r =
  let n = Array.length r.tasks in
  let rec go () =
    let i = Atomic.fetch_and_add r.next 1 in
    if i < n then begin
      r.tasks.(i) ();
      if Atomic.fetch_and_add r.pending (-1) = 1 then begin
        Mutex.lock p.mutex;
        (match p.region with
        | Some r' when r' == r -> p.region <- None
        | _ -> ());
        Condition.broadcast p.finished;
        Mutex.unlock p.mutex
      end;
      go ()
    end
  in
  go ()

let worker_loop p =
  Mutex.lock p.mutex;
  let rec loop () =
    if p.stop then Mutex.unlock p.mutex
    else
      match p.region with
      | Some r when Atomic.get r.next < Array.length r.tasks ->
          Mutex.unlock p.mutex;
          drain p r;
          Mutex.lock p.mutex;
          loop ()
      | _ ->
          Condition.wait p.work p.mutex;
          loop ()
  in
  loop ()

let create_pool size =
  let p =
    { mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      region = None;
      stop = false;
      workers = [] }
  in
  p.workers <-
    List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop p));
  p

let shutdown_pool p =
  Mutex.lock p.mutex;
  p.stop <- true;
  Condition.broadcast p.work;
  Mutex.unlock p.mutex;
  List.iter Domain.join p.workers;
  p.workers <- []

(* The live pool, keyed by its size; resized lazily when the domain
   count changes. Only non-task domains reach this (tasks run nested
   calls inline), so plain refs suffice. *)
let state = ref None

let shutdown () =
  match !state with
  | Some (_, p) ->
      state := None;
      shutdown_pool p
  | None -> ()

let () = at_exit shutdown

let get_pool () =
  let d = num_domains () in
  if d <= 1 then None
  else
    match !state with
    | Some (size, p) when size = d -> Some p
    | _ ->
        shutdown ();
        let p = create_pool d in
        state := Some (d, p);
        Some p

let run_region p tasks =
  let n = Array.length tasks in
  if n > 0 then begin
    let r = { tasks; next = Atomic.make 0; pending = Atomic.make n } in
    Mutex.lock p.mutex;
    while p.region <> None do
      Condition.wait p.finished p.mutex
    done;
    p.region <- Some r;
    Condition.broadcast p.work;
    Mutex.unlock p.mutex;
    drain p r;
    Mutex.lock p.mutex;
    while Atomic.get r.pending > 0 do
      Condition.wait p.finished p.mutex
    done;
    Mutex.unlock p.mutex
  end

(* Optional per-region task wrapper (installed by the observability
   layer): the factory runs on the submitting domain at submission
   time — capturing e.g. the current tracing-span context — and the
   wrapper it returns runs around every task of the region on
   whichever domain executes it. *)
let task_wrapper : (unit -> (unit -> unit) -> unit -> unit) option ref =
  ref None

let set_task_wrapper w = task_wrapper := w

(* Run [body lo hi] over the fixed grid of [chunk]-sized slices of
   [0, n). Parallel when a pool is available and the caller is not
   already inside a task; inline otherwise. On task exceptions the
   remaining tasks still run; the lowest-chunk exception re-raises. *)
let run_chunks ~chunk ~n body =
  if n > 0 then begin
    let chunk = max 1 chunk in
    if n <= chunk || busy () then body 0 n
    else
      match get_pool () with
      | None -> body 0 n
      | Some p ->
          let nchunks = (n + chunk - 1) / chunk in
          let exns = Array.make nchunks None in
          let wrap =
            match !task_wrapper with
            | None -> fun task -> task
            | Some mk -> mk ()
          in
          let tasks =
            Array.init nchunks (fun c ->
                let lo = c * chunk and hi = min n ((c + 1) * chunk) in
                fun () ->
                  let flag = Domain.DLS.get busy_key in
                  let saved = !flag in
                  flag := true;
                  (try wrap (fun () -> body lo hi) () with
                  | e -> exns.(c) <- Some e);
                  flag := saved)
          in
          run_region p tasks;
          Array.iter (function Some e -> raise e | None -> ()) exns
  end

let default_chunk = 64

let iter_chunks ?(chunk = default_chunk) n body = run_chunks ~chunk ~n body

let init ?(chunk = default_chunk) n f =
  if n <= 0 then [||]
  else if n <= max 1 chunk || num_domains () <= 1 || busy () then
    Array.init n f
  else begin
    let res = Array.make n None in
    run_chunks ~chunk ~n (fun lo hi ->
        for i = lo to hi - 1 do
          res.(i) <- Some (f i)
        done);
    Array.map (function Some v -> v | None -> assert false) res
  end

let parallel_map ?(chunk = 1) f arr =
  init ~chunk (Array.length arr) (fun i -> f arr.(i))

let float_init ?(chunk = default_chunk) n f =
  if n <= 0 then [||]
  else begin
    let res = Array.make n 0. in
    run_chunks ~chunk ~n (fun lo hi ->
        for i = lo to hi - 1 do
          res.(i) <- f i
        done);
    res
  end

let for_reduce ?chunk ~init:acc0 ~f ~combine n =
  if n <= 0 then acc0
  else begin
    let values = init ?chunk n f in
    let acc = ref acc0 in
    for i = 0 to n - 1 do
      acc := combine !acc values.(i)
    done;
    !acc
  end

let reduce_chunks ?(chunk = default_chunk) ~local ~combine n =
  if n <= 0 then None
  else begin
    let chunk = max 1 chunk in
    let nchunks = (n + chunk - 1) / chunk in
    (* The grid is a function of [chunk] and [n] alone, and locals are
       folded in chunk order, so the reduction tree — hence the result,
       associative combine or not — is identical at every domain
       count. *)
    let locals =
      init ~chunk:1 nchunks (fun c ->
          local (c * chunk) (min n ((c + 1) * chunk)))
    in
    let acc = ref locals.(0) in
    for c = 1 to nchunks - 1 do
      acc := combine !acc locals.(c)
    done;
    Some !acc
  end

let argmax_float ?chunk ~n score =
  reduce_chunks ?chunk
    ~local:(fun lo hi ->
      let best = ref lo and best_v = ref (score lo) in
      for i = lo + 1 to hi - 1 do
        let v = score i in
        if v > !best_v then begin
          best := i;
          best_v := v
        end
      done;
      (!best, !best_v))
    ~combine:(fun (i, v) (i', v') -> if v' > v then (i', v') else (i, v))
    n

let with_num_domains n f =
  let saved = !override in
  set_num_domains (Some n);
  Fun.protect ~finally:(fun () -> override := saved) f
