type user_spec = {
  utility_cap : float;
  capacity : float array;
  interests : (int * float * float array) list;
}

type t =
  | User_join of user_spec
  | User_leave of int
  | Stream_cost_change of { stream : int; costs : float array }
  | Budget_resize of float array

let kind = function
  | User_join _ -> "join"
  | User_leave _ -> "leave"
  | Stream_cost_change _ -> "cost"
  | Budget_resize _ -> "budget"

(* [Printf.sprintf "%.17g"] is this external on the same format (it
   adds nothing for %g), so the bytes are the same, "inf", "-inf" and
   "-0" included. *)
external format_float : string -> float -> string = "caml_format_float"

let add_num buf x = Buffer.add_string buf (format_float "%.17g" x)

let add_nums buf xs =
  Array.iter
    (fun x ->
      Buffer.add_char buf ' ';
      add_num buf x)
    xs

(* Space-separated, with no leading separator. *)
let add_list buf xs =
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ' ';
      add_num buf x)
    xs

let to_string d =
  let buf = Buffer.create 256 in
  (match d with
  | User_leave slot ->
      Buffer.add_string buf "leave ";
      Buffer.add_string buf (string_of_int slot)
  | Stream_cost_change { stream; costs } ->
      Buffer.add_string buf "cost ";
      Buffer.add_string buf (string_of_int stream);
      Buffer.add_char buf ' ';
      add_list buf costs
  | Budget_resize budgets ->
      Buffer.add_string buf "budget ";
      add_list buf budgets
  | User_join { utility_cap; capacity; interests } ->
      Buffer.add_string buf "join ";
      add_num buf utility_cap;
      add_nums buf capacity;
      List.iter
        (fun (s, w, loads) ->
          Buffer.add_string buf " | ";
          Buffer.add_string buf (string_of_int s);
          Buffer.add_char buf ' ';
          add_num buf w;
          add_nums buf loads)
        interests);
  Buffer.contents buf

(* The parse path is exception-free toward its callers: every malformed
   token produces an [Error] with token context, and only the
   [of_string]/[log_of_string] wrappers at the bottom convert those to
   the legacy [Failure] for the CLI boundary.

   One cursor scan over [s.[pos .. pos+len-1]]: a token is a maximal
   run of non-space bytes, and only tokens handed to [float_of_string]
   (or an integer in an unusual form) are copied out. When a line has
   several bad tokens the error names the one the list-based parser
   this replaced named: within a record or tuple that parser evaluated
   the last component first, so costs before the stream, capacities
   before the utility cap, and loads, then the utility, then the stream
   within an interest. *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt

let rec skip s i stop = if i < stop && s.[i] = ' ' then skip s (i + 1) stop else i

let rec tok_end s i stop =
  if i < stop && s.[i] <> ' ' then tok_end s (i + 1) stop else i

let is_bar s a b = b = a + 1 && s.[a] = '|'

(* Tokens from [i] to [stop], or only up to the next "|" token when
   [bar]. *)
let count_tokens ~bar s i stop =
  let rec go i n =
    let a = skip s i stop in
    if a = stop then n
    else
      let b = tok_end s a stop in
      if bar && is_bar s a b then n else go b (n + 1)
  in
  go i 0

let float_at what s a b =
  let tok = String.sub s a (b - a) in
  match float_of_string tok with
  | x -> x
  | exception Failure _ -> fail "bad %s %S" what tok

(* Plain decimals of up to 18 digits, which is all the encoder writes,
   are read in place; any other form goes through [int_of_string]. *)
let int_at what s a b =
  let neg = s.[a] = '-' in
  let d = if neg then a + 1 else a in
  let rec digits i acc =
    if i = b then acc
    else
      match s.[i] with
      | '0' .. '9' as c -> digits (i + 1) ((acc * 10) + Char.code c - 48)
      | _ -> -1
  in
  let v = if b > d && b - d <= 18 then digits d 0 else -1 in
  if v >= 0 then if neg then -v else v
  else
    let tok = String.sub s a (b - a) in
    match int_of_string_opt tok with
    | Some x -> x
    | None -> fail "bad %s %S" what tok

(* Fills [xs] from the next [Array.length xs] tokens after [i] and
   returns the position after the last one. *)
let read_floats what s i stop xs =
  let i = ref i in
  for k = 0 to Array.length xs - 1 do
    let a = skip s !i stop in
    let b = tok_end s a stop in
    xs.(k) <- float_at what s a b;
    i := b
  done;
  !i

let parse_exn s pos len =
  let stop = pos + len in
  let a = skip s pos stop in
  if a = stop then fail "empty line";
  let b = tok_end s a stop in
  match String.sub s a (b - a) with
  | "leave" ->
      let a1 = skip s b stop in
      let b1 = tok_end s a1 stop in
      if a1 = stop || skip s b1 stop <> stop then
        fail "leave expects one slot id";
      User_leave (int_at "slot" s a1 b1)
  | "cost" ->
      let a1 = skip s b stop in
      let b1 = tok_end s a1 stop in
      let n = count_tokens ~bar:false s b1 stop in
      if a1 = stop || n = 0 then fail "cost expects a stream and costs";
      let costs = Array.make n 0. in
      ignore (read_floats "cost" s b1 stop costs);
      Stream_cost_change { stream = int_at "stream" s a1 b1; costs }
  | "budget" ->
      let n = count_tokens ~bar:false s b stop in
      if n = 0 then fail "budget expects budget values";
      let budgets = Array.make n 0. in
      ignore (read_floats "budget" s b stop budgets);
      Budget_resize budgets
  | "join" ->
      (* "|" tokens split the rest into groups: the head group is
         [W K_1..K_mc], each further group one interest. *)
      let head = count_tokens ~bar:true s b stop in
      if head = 0 then fail "join expects a utility cap";
      let a1 = skip s b stop in
      let b1 = tok_end s a1 stop in
      let mc = head - 1 in
      let capacity = Array.make mc 0. in
      let i = read_floats "capacity" s b1 stop capacity in
      let utility_cap = float_at "utility cap" s a1 b1 in
      (* [i] sits before the "|" that opens the next group, or at the
         end. *)
      let rec interests i acc =
        let bar = skip s i stop in
        if bar = stop then List.rev acc
        else begin
          if count_tokens ~bar:true s (bar + 1) stop <> mc + 2 then
            fail "join interest expects <stream> <w> and %d loads" mc;
          let sa = skip s (bar + 1) stop in
          let sb = tok_end s sa stop in
          let wa = skip s sb stop in
          let wb = tok_end s wa stop in
          let loads = Array.make mc 0. in
          let i = read_floats "load" s wb stop loads in
          let w = float_at "utility" s wa wb in
          interests i ((int_at "stream" s sa sb, w, loads) :: acc)
        end
      in
      User_join { utility_cap; capacity; interests = interests i [] }
  | kw -> fail "unknown keyword %S" kw

let of_string_result line =
  match parse_exn line 0 (String.length line) with
  | d -> Ok d
  | exception Parse_error msg -> Error ("Delta.of_string: " ^ msg)

let of_string line =
  match of_string_result line with Ok d -> d | Error msg -> failwith msg

let log_to_string deltas =
  String.concat "" (List.map (fun d -> to_string d ^ "\n") deltas)

let strip_comment line =
  match String.index_opt line '#' with
  | Some j -> String.sub line 0 j
  | None -> line

let log_of_string_result text =
  let lines = String.split_on_char '\n' text in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        let line = strip_comment line in
        if String.trim line = "" then go (i + 1) acc rest
        else
          match of_string_result line with
          | Ok d -> go (i + 1) (d :: acc) rest
          | Error msg -> Error (Printf.sprintf "line %d: %s" i msg))
  in
  go 1 [] lines

let log_of_string text =
  match log_of_string_result text with
  | Ok deltas -> deltas
  | Error msg -> failwith msg

let write_log path deltas =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (log_to_string deltas))

let pp ppf d =
  match d with
  | User_join { interests; _ } ->
      Format.fprintf ppf "join (%d interests)" (List.length interests)
  | User_leave slot -> Format.fprintf ppf "leave slot %d" slot
  | Stream_cost_change { stream; _ } ->
      Format.fprintf ppf "cost change on stream %d" stream
  | Budget_resize _ -> Format.fprintf ppf "budget resize"
