(* Engine state on disk: an append-only chain of CRC-framed increments,
   the one encoding of a controller's state.

   A {e full} increment carries the whole state: a catalog line (stream
   count, m, mc, instance name), every active slot's spec, every cost
   row, the budget and the exact free-list order — rebuilt on top of a
   catalog-only view (zero users) — plus the controller/planner
   section. A {e diff} increment carries only what changed since its
   parent: the final spec of every slot that churned in the window, the
   slots freed, changed cost rows, the budget when it changed and the
   free order, plus the same controller/planner section, which is small
   and always written whole: the plan (delivered sets), the admitted
   set, the path-dependent float accumulators in lossless %h hex,
   counters, histograms and the epoch phase.

   A chain starts with a full increment; a snapshot is a chain of
   exactly one. Recovery starts from the last full increment, applies
   the diffs after it in order and installs the last increment's
   controller state — no replan, no planner bookkeeping per record. The
   WAL tail beyond the last increment replays through the ordinary
   path, so the result is bit-identical to a full replay; segments the
   chain covers can be deleted by [Wal_store.compact].

   File format (all text):

     mmd-engine-state v1
     F <covers> <body-bytes> <crc32-hex>     a full increment
     <body>
     I <covers> <body-bytes> <crc32-hex>     a diff increment
     <body>
     ...

   Each increment is framed independently; a torn or corrupt increment
   invalidates itself and everything after it (later diffs build on
   it), and recovery falls back to the longest valid prefix — the WAL
   tail just gets longer, exactly like a missed snapshot. *)

let magic = "mmd-engine-state v1"

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt

let int_tok what tok =
  match int_of_string_opt tok with
  | Some x -> x
  | None -> fail "bad %s %S" what tok

let float_tok what tok =
  match float_of_string_opt tok with
  | Some x -> x
  | None -> fail "bad %s %S" what tok

(* ------------------------------------------------------------------ *)
(* Frames *)

type frame = {
  full : bool;
  covers : int;
  body : string;
  stop : int;  (** offset just past the frame *)
}

let header_line ~full ~covers ~blen crc =
  Printf.sprintf "%s %d %d %s" (if full then "F" else "I") covers blen
    (Prelude.Crc32.to_hex crc)

(* Split the chain into CRC-validated frames: the valid prefix, and why
   the first bad frame (if any) failed — everything from it on is
   discarded. *)
let scan_frames text =
  let len = String.length text in
  if not (String.starts_with ~prefix:(magic ^ "\n") text) then
    Error "not an engine state file (bad magic)"
  else begin
    let frames = ref [] in
    let rec go pos =
      if pos >= len then None
      else
        match String.index_from_opt text pos '\n' with
        | None ->
            Some (Printf.sprintf "truncated increment header at byte %d" pos)
        | Some hdr_end -> (
            (* Only the canonical rendering is a header, so no changed
               byte in it goes unnoticed. *)
            let line = String.sub text pos (hdr_end - pos) in
            let header =
              match String.split_on_char ' ' line with
              | [ kind; covers; blen; crc ] -> (
                  match
                    ( kind,
                      int_of_string_opt covers,
                      int_of_string_opt blen,
                      Prelude.Crc32.of_hex crc )
                  with
                  | ("F" | "I"), Some covers, Some blen, Some crc
                    when covers >= 0 && blen >= 0
                         && line
                            = header_line ~full:(kind = "F") ~covers ~blen crc
                    ->
                      Some (kind = "F", covers, blen, crc)
                  | _ -> None)
              | _ -> None
            in
            match header with
            | None -> Some (Printf.sprintf "bad increment header at byte %d" pos)
            | Some (full, covers, blen, stored) ->
                let body_start = hdr_end + 1 in
                let avail = len - body_start in
                if avail < blen then
                  Some
                    (Printf.sprintf
                       "truncated increment at byte %d (body %d of %d bytes) — \
                        torn write"
                       pos avail blen)
                else
                  let actual =
                    Prelude.Crc32.digest_sub text ~pos:body_start ~len:blen
                  in
                  if actual <> stored then
                    Some
                      (Printf.sprintf
                         "increment checksum mismatch at byte %d (stored %s, \
                          actual %s)"
                         pos
                         (Prelude.Crc32.to_hex stored)
                         (Prelude.Crc32.to_hex actual))
                  else begin
                    let stop = body_start + blen in
                    let body = String.sub text body_start blen in
                    frames := { full; covers; body; stop } :: !frames;
                    go stop
                  end)
    in
    let damage = go (String.length magic + 1) in
    Ok (List.rev !frames, damage)
  end

(* [None] when [path] cannot be read whole: missing, a directory, or
   an IO error midway. *)
let read_all path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Some text
  | exception Sys_error _ -> None

(* ------------------------------------------------------------------ *)
(* Writing *)

(* What the next increment must carry; [all] makes it a full one. *)
type dirty = {
  slots : (int, unit) Hashtbl.t;
  costs : (int, unit) Hashtbl.t;
  mutable budget : bool;
  mutable all_costs : bool;
  all : bool;
}

let clean ~all =
  { slots = Hashtbl.create 64;
    costs = Hashtbl.create 16;
    budget = false;
    all_costs = false;
    all }

let sorted_keys tbl =
  Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort compare

let body_of d ctrl =
  let view = Controller.view ctrl in
  let planner = Controller.planner ctrl in
  let mc = View.mc view and m = View.m view in
  let buf = Buffer.create 4096 in
  let addf fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  let floats a =
    String.concat "" (List.map (Printf.sprintf " %h") (Array.to_list a))
  in
  let ints l = String.concat "" (List.map (Printf.sprintf " %d") l) in
  if d.all then
    addf "catalog %d %d %d %s\n" (View.num_streams view) m mc (View.name view);
  addf "nslots %d\n" (View.num_slots view);
  addf "policy %s\n" (Controller.policy_to_string (Controller.policy ctrl));
  (match Controller.pinned ctrl with
  | [] -> ()
  | pinned -> addf "pinned%s\n" (ints pinned));
  if d.all || d.budget then addf "budget%s\n" (floats (View.budgets view));
  let cost_rows =
    if d.all || d.all_costs then List.init (View.num_streams view) Fun.id
    else sorted_keys d.costs
  in
  List.iter
    (fun s -> addf "cost %d%s\n" s (floats (View.cost_row view s)))
    cost_rows;
  let slots =
    if d.all then View.active_slots view
    else begin
      let dirty = sorted_keys d.slots in
      (match List.filter (fun u -> not (View.is_active view u)) dirty with
      | [] -> ()
      | freed -> addf "freed%s\n" (ints freed));
      List.filter (View.is_active view) dirty
    end
  in
  List.iter
    (fun u ->
      let spec = View.user_spec view u in
      addf "slot %d %h%s %d" u spec.Delta.utility_cap
        (floats spec.Delta.capacity)
        (List.length spec.Delta.interests);
      List.iter
        (fun (s, wu, loads) ->
          if Array.length loads <> mc then
            invalid_arg "Checkpoint: spec loads arity <> mc";
          addf " %d %h%s" s wu (floats loads))
        spec.Delta.interests;
      addf "\n")
    slots;
  addf "free%s\n" (ints (View.free_list view));
  let j, l, c, b, r, e = Counters.fields (Controller.counters ctrl) in
  let ft, q, rec_, fb = Counters.resilience_fields (Controller.counters ctrl) in
  addf "counters %d %d %d %d %d %d %d %d %d %d %d %d %d\n" j l c b r e
    (Planner.evals planner)
    (Planner.eager_equiv planner)
    (Controller.deltas_applied ctrl)
    ft q rec_ fb;
  addf "epoch %d %.17g\n"
    (Controller.since_replan ctrl)
    (Controller.utility_at_replan ctrl);
  let cs = Controller.counters ctrl in
  if Obs.Hist.count (Counters.replan_hist cs) > 0 then
    addf "hist replan %s\n" (Obs.Hist.encode (Counters.replan_hist cs));
  if Obs.Hist.count (Counters.recovery_hist cs) > 0 then
    addf "hist recovery %s\n" (Obs.Hist.encode (Counters.recovery_hist cs));
  (* [Planner.force] rebuilds these in plan order, which can round
     differently from the live incremental accumulation — persisting
     the exact bits keeps recovery bit-identical, utility included. *)
  let ptotal, pused, pslots = Planner.float_state planner in
  addf "pstate %h%s\n" ptotal (floats pused);
  Array.iteri
    (fun u (du, cap, cu) -> addf "pslot %d %h %h%s\n" u du cap (floats cu))
    pslots;
  (* The transmitted set: the plan only names streams delivered to at
     least one slot, so a stream whose recipients all left — still
     holding budget, still free for later joiners — would be dropped. *)
  (match Planner.admitted planner with
  | [] -> ()
  | streams -> addf "admitted%s\n" (ints streams));
  addf "%%%%plan\n%s" (Mmd.Io.assignment_to_string (Controller.plan ctrl));
  Buffer.contents buf

let frame d ctrl =
  let body = body_of d ctrl in
  header_line ~full:d.all
    ~covers:(Controller.deltas_applied ctrl)
    ~blen:(String.length body) (Prelude.Crc32.digest body)
  ^ "\n" ^ body

let to_string ctrl = magic ^ "\n" ^ frame (clean ~all:true) ctrl

type writer = {
  path : string;
  oc : out_channel;
  mutable dirty : dirty;
  mutable covered : int;
  mutable increments : int;
}

let create_writer ~path ctrl =
  (* Append after the valid prefix only: frames written after a torn
     or corrupt one would never be read back. A file that is not a
     chain at all starts over. *)
  let valid_end, prior =
    match Option.map scan_frames (read_all path) with
    | None | Some (Error _) -> (0, None)
    | Some (Ok (frames, _)) -> (
        match List.rev frames with
        | [] -> (String.length magic + 1, None)
        | last :: _ -> (last.stop, Some (last.covers, List.length frames)))
  in
  if Sys.file_exists path then Unix.truncate path valid_end;
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644
      path
  in
  if valid_end = 0 then begin
    output_string oc magic;
    output_char oc '\n';
    flush oc
  end;
  (* The chain's parent state is its last valid increment. A fresh
     chain, or a controller anywhere else (resumed past the last
     increment), starts with a full increment. *)
  let full =
    match prior with
    | None -> true
    | Some (covered, _) -> Controller.deltas_applied ctrl <> covered
  in
  let covered, increments = Option.value prior ~default:(0, 0) in
  { path; oc; dirty = clean ~all:full; covered; increments }

let note w (applied : View.applied) =
  let d = w.dirty in
  match applied with
  | View.Joined u | View.Left u -> Hashtbl.replace d.slots u ()
  | View.Cost_changed s -> Hashtbl.replace d.costs s ()
  | View.Budgets_resized ->
      (* A resize clamps every cost row, so they are all dirty. *)
      d.budget <- true;
      d.all_costs <- true

let m_checkpoint_seconds = lazy (Obs.Metrics.histogram "checkpoint_write_seconds")
let m_checkpoint_bytes = lazy (Obs.Metrics.counter "checkpoint_bytes_total")

let checkpoint w ctrl =
  Obs.Span.with_ ~name:"checkpoint.write" (fun () ->
      let t0 = Obs.Clock.now () in
      let text = frame w.dirty ctrl in
      output_string w.oc text;
      flush w.oc;
      w.dirty <- clean ~all:false;
      w.covered <- Controller.deltas_applied ctrl;
      w.increments <- w.increments + 1;
      Obs.Metrics.inc ~n:(String.length text) (Lazy.force m_checkpoint_bytes);
      Obs.Hist.observe
        (Lazy.force m_checkpoint_seconds)
        (Obs.Clock.elapsed_since t0))

let covered w = w.covered
let increments w = w.increments
let close_writer w = close_out w.oc

(* ------------------------------------------------------------------ *)
(* Reading *)

type parsed = {
  p_catalog : (int * int * int * string) option;
  p_nslots : int;
  p_policy : Controller.epoch_policy;
  p_pinned : int list;
  p_budget : float array option;
  p_costs : (int * float array) list;
  p_freed : int list;
  p_slots : (int * Delta.user_spec) list;
  p_free : int list;
  p_counters : int array;
  p_epoch : int * float;
  p_replan_hist : Obs.Hist.t option;
  p_recovery_hist : Obs.Hist.t option;
  p_pstate : float * float array;
  p_pslots : (int * (float * float * float array)) list;
  p_admitted : int list option;
  p_plan : string;
}

let floats_of what toks = Array.of_list (List.map (float_tok what) toks)

let parse_slot_line ~mc = function
  | u :: ucap :: rest ->
      let u = int_tok "slot id" u in
      let ucap = float_tok "slot utility cap" ucap in
      let rec split n acc rest =
        if n = 0 then (Array.of_list (List.rev acc), rest)
        else
          match rest with
          | [] -> fail "short slot line for %d" u
          | x :: tl -> split (n - 1) (float_tok "slot capacity" x :: acc) tl
      in
      let caps, rest = split mc [] rest in
      let k, rest =
        match rest with
        | k :: tl -> (int_tok "interest count" k, tl)
        | [] -> fail "short slot line for %d" u
      in
      let rec interests n acc rest =
        if n = 0 then (
          if rest <> [] then fail "trailing tokens on slot line for %d" u;
          List.rev acc)
        else
          match rest with
          | s :: wu :: tl ->
              let s = int_tok "interest stream" s in
              let wu = float_tok "interest utility" wu in
              let loads, tl = split mc [] tl in
              interests (n - 1) ((s, wu, loads) :: acc) tl
          | _ -> fail "short slot line for %d" u
      in
      let interests = interests k [] rest in
      (u, { Delta.utility_cap = ucap; capacity = caps; interests })
  | _ -> fail "bad slot line"

(* Parse one increment. [dims] is the (m, mc) of the view it applies
   to — [None] for the increment that starts the rebuild, which must
   be full and brings its own. Every array is checked against the
   dimensions before anything is allocated from them. *)
let parse_frame ~dims { full; covers; body; _ } =
  let lines = String.split_on_char '\n' body in
  let header, plan_lines =
    let rec split acc = function
      | [] -> fail "increment missing %%plan section"
      | "%%plan" :: rest -> (List.rev acc, rest)
      | line :: rest -> split (line :: acc) rest
    in
    split [] lines
  in
  let tokens line =
    String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
  in
  let catalog =
    if not full then None
    else
      match List.map tokens header with
      | ("catalog" :: ns :: m :: mc :: name) :: _ ->
          let ns = int_tok "stream count" ns
          and m = int_tok "budget count" m
          and mc = int_tok "capacity count" mc in
          if ns < 0 || m < 0 || mc < 0 then fail "negative catalog dimension";
          Some (ns, m, mc, String.concat " " name)
      | _ -> fail "full increment missing its catalog line"
  in
  let m, mc =
    match (catalog, dims) with
    | Some (_, m, mc, _), _ -> (m, mc)
    | None, Some dims -> dims
    | None, None -> fail "chain does not start with a full increment"
  in
  let arity what n a =
    if Array.length a <> n then
      fail "%s has %d values, expected %d" what (Array.length a) n;
    a
  in
  let nslots = ref None and policy = ref None and pinned = ref [] in
  let budget = ref None and costs = ref [] and freed = ref [] in
  let slots = ref [] and free_order = ref None and counters = ref None in
  let epoch = ref None and replan_hist = ref None and recovery_hist = ref None in
  let pstate = ref None and pslots = ref [] and admitted = ref None in
  List.iteri
    (fun i line ->
      match tokens line with
      | "catalog" :: _ when i = 0 && full -> ()
      | [ "nslots"; n ] -> nslots := Some (int_tok "nslots" n)
      | "policy" :: spec -> (
          match Controller.policy_of_string (String.concat ":" spec) with
          | Ok p -> policy := Some p
          | Error msg -> fail "%s" msg)
      | "pinned" :: ids -> pinned := List.map (int_tok "pinned id") ids
      | "budget" :: bs ->
          budget := Some (arity "budget" m (floats_of "budget" bs))
      | "cost" :: s :: cs ->
          costs :=
            (int_tok "cost stream" s, arity "cost row" m (floats_of "cost" cs))
            :: !costs
      | "freed" :: ids -> freed := List.map (int_tok "freed slot") ids
      | "slot" :: rest -> slots := parse_slot_line ~mc rest :: !slots
      | "free" :: ids -> free_order := Some (List.map (int_tok "free slot") ids)
      | "counters" :: fields ->
          let fields = Array.of_list (List.map (int_tok "counter") fields) in
          counters := Some (arity "counters" 13 fields)
      | [ "epoch"; since; util ] ->
          epoch :=
            Some (int_tok "epoch phase" since, float_tok "epoch utility" util)
      | "hist" :: which :: encoded -> (
          match Obs.Hist.decode (String.concat " " encoded) with
          | Error msg -> fail "bad %s histogram: %s" which msg
          | Ok h -> (
              match which with
              | "replan" -> replan_hist := Some h
              | "recovery" -> recovery_hist := Some h
              | other -> fail "unknown histogram %S" other))
      | "pstate" :: total :: used ->
          pstate :=
            Some
              ( float_tok "planner total" total,
                arity "planner budget use" m (floats_of "planner used" used) )
      | "pslot" :: u :: du :: cap :: cus ->
          pslots :=
            ( int_tok "planner slot" u,
              ( float_tok "slot delivered utility" du,
                float_tok "slot capped utility" cap,
                arity "slot capacity use" mc
                  (floats_of "slot capacity used" cus) ) )
            :: !pslots
      | "admitted" :: ids ->
          admitted := Some (List.map (int_tok "admitted stream") ids)
      | kw :: _ -> fail "unknown increment keyword %S" kw
      | [] -> ())
    header;
  let need what = function
    | Some x -> x
    | None -> fail "increment missing %s" what
  in
  let p_counters = need "counters" !counters in
  if p_counters.(8) <> covers then
    fail "increment header covers %d but its counters say %d" covers
      p_counters.(8);
  let p_nslots = need "nslots" !nslots in
  (* Every slot has a pslot line, so the slot table this increment
     grows to is bounded by its own size. *)
  if List.length !pslots <> p_nslots then
    fail "%d slots but %d pslot lines" p_nslots (List.length !pslots);
  (match catalog with
  | Some (ns, _, _, _) ->
      if !budget = None then fail "full increment missing its budget";
      if List.length !costs <> ns then
        fail "full increment has %d cost rows for %d streams"
          (List.length !costs) ns
  | None -> ());
  { p_catalog = catalog;
    p_nslots;
    p_policy = need "policy" !policy;
    p_pinned = !pinned;
    p_budget = !budget;
    p_costs = List.rev !costs;
    p_freed = !freed;
    p_slots = List.rev !slots;
    p_free = need "free order" !free_order;
    p_counters;
    p_epoch = need "epoch" !epoch;
    p_replan_hist = !replan_hist;
    p_recovery_hist = !recovery_hist;
    p_pstate = need "pstate" !pstate;
    p_pslots = !pslots;
    p_admitted = !admitted;
    p_plan = String.concat "\n" plan_lines ^ "\n" }

(* The view a full increment rebuilds on: its catalog with zero users.
   Costs and budget start at zero and come from the increment itself. *)
let catalog_view (ns, m, mc, name) =
  View.of_instance
    (Mmd.Instance.create ~name ~mc
       ~server_cost:(Array.make_matrix ns m 0.)
       ~budget:(Array.make m 0.) ~load:[||] ~capacity:[||] ~utility:[||]
       ~utility_cap:[||] ())

(* Apply one increment's view diff. Budget first, then cost rows —
   both through the ordinary delta path: the recorded values are the
   {e final} clamped state, so the clamp View.apply re-runs is a
   no-op. Then slot churn, then the free order. *)
let apply_view_diff view p =
  View.ensure_slots_raw view p.p_nslots;
  (match p.p_budget with
  | Some b -> ignore (View.apply view (Delta.Budget_resize b))
  | None -> ());
  List.iter
    (fun (s, costs) ->
      ignore (View.apply view (Delta.Stream_cost_change { stream = s; costs })))
    p.p_costs;
  List.iter (fun u -> View.clear_slot_raw view u) p.p_freed;
  List.iter (fun (u, spec) -> View.restore_slot view u spec) p.p_slots;
  View.set_free_raw view p.p_free

(* Install the last increment's controller and planner state. *)
let controller_of view p =
  let plan =
    Mmd.Io.assignment_of_string ~num_users:(View.num_slots view) p.p_plan
  in
  let since_replan, utility_at_replan = p.p_epoch in
  let c = p.p_counters in
  let ctrl =
    Controller.of_state ~since_replan ~deltas_applied:c.(8) ~utility_at_replan
      ?admitted:p.p_admitted ~policy:p.p_policy ~pinned:p.p_pinned ~view ~plan ()
  in
  let cs = Controller.counters ctrl in
  Counters.restore cs ~joins:c.(0) ~leaves:c.(1) ~cost_changes:c.(2)
    ~budget_resizes:c.(3) ~replans:c.(4) ~evictions:c.(5);
  Planner.add_evals (Controller.planner ctrl) ~evals:c.(6) ~eager_equiv:c.(7);
  Counters.restore_resilience cs ~faults:c.(9) ~quarantined:c.(10)
    ~recoveries:c.(11) ~fallbacks:c.(12);
  Option.iter (Counters.set_replan_hist cs) p.p_replan_hist;
  Option.iter (Counters.set_recovery_hist cs) p.p_recovery_hist;
  let slots = Array.make (View.num_slots view) None in
  List.iter
    (fun (u, s) ->
      if u < 0 || u >= Array.length slots then fail "pslot %d out of range" u;
      slots.(u) <- Some s)
    p.p_pslots;
  let total, used = p.p_pstate in
  Planner.set_float_state (Controller.planner ctrl) ~total ~used
    ~slots:
      (Array.mapi
         (fun u -> function
           | Some s -> s
           | None -> fail "slot %d has no pslot line" u)
         slots);
  ctrl

type recovered = {
  ctrl : Controller.t;
  covered : int;
  increments : int;
  torn : bool;
}

(* Rebuild from the last full increment (earlier ones are superseded
   by it), then the diffs after it in order. *)
let rebuild frames =
  let rec from_last_full acc = function
    | [] -> acc
    | f :: rest -> from_last_full (if f.full then f :: rest else acc) rest
  in
  match from_last_full [] frames with
  | [] -> fail "chain does not start with a full increment"
  | first :: diffs ->
      let p = parse_frame ~dims:None first in
      let view = catalog_view (Option.get p.p_catalog) in
      apply_view_diff view p;
      let dims = Some (View.m view, View.mc view) in
      let last =
        List.fold_left
          (fun _ f ->
            let p = parse_frame ~dims f in
            apply_view_diff view p;
            p)
          p diffs
      in
      controller_of view last

(* The valid frames of a chain; a whole one must have no damage. *)
let frames_of ~whole text =
  match scan_frames text with
  | Error msg -> Error msg
  | Ok (_, Some why) when whole -> Error why
  | Ok ([], damage) ->
      Error
        (match damage with
        | Some why -> "no valid increments: " ^ why
        | None -> "no valid increments")
  | Ok (frames, damage) -> Ok (frames, damage <> None)

type scanned = { bytes : int; frames : frame list; torn : bool }

let scan ?(whole = false) path =
  match read_all path with
  | None -> Error (Printf.sprintf "cannot read %s" path)
  | Some text ->
      Result.map
        (fun (frames, torn) -> { bytes = String.length text; frames; torn })
        (frames_of ~whole text)

let covers frames = (List.nth frames (List.length frames - 1)).covers
let extent s = (s.bytes, covers s.frames)

let recovered ~torn frames =
  match rebuild frames with
  | ctrl ->
      Ok
        { ctrl; covered = covers frames; increments = List.length frames;
          torn }
  | exception (Parse_error msg | Invalid_argument msg | Failure msg) ->
      Error msg

let restore s =
  Obs.Span.with_ ~name:"checkpoint.recover" (fun () ->
      recovered ~torn:s.torn s.frames)

let recover ~path =
  Result.map_error
    (fun msg -> "Checkpoint.recover: " ^ msg)
    (Result.bind (scan path) restore)

let of_string text =
  Result.bind (frames_of ~whole:true text) (fun (frames, _) ->
      Result.map (fun r -> r.ctrl) (recovered ~torn:false frames))
