(* Delta, WAL and frame codecs.

   The encoders must keep writing exactly the bytes of the Printf-based
   encoder they replaced, and the parsers must keep accepting the same
   language with the same error messages: WAL files and shipped records
   written by older builds stay readable, and a follower verifies the
   very bytes its primary logged. The reference implementations below
   are copies of the original code, kept here as oracles only. Every
   decoder of untrusted bytes — engine state files included — must
   return [Ok] or [Error], never raise. *)

open Helpers
module D = Engine.Delta
module W = Engine.Wal
module G = Replica.Group
module FC = Replica.Frame_codec
module Crc32 = Prelude.Crc32
module Rng = Prelude.Rng

(* ---------- Reference oracles ---------- *)

module Ref = struct
  let table =
    Array.init 256 (fun n ->
        let c = ref (Int32.of_int n) in
        for _ = 0 to 7 do
          c :=
            if Int32.logand !c 1l <> 0l then
              Int32.logxor 0xedb88320l (Int32.shift_right_logical !c 1)
            else Int32.shift_right_logical !c 1
        done;
        !c)

  let crc_sub ?(init = 0l) s ~pos ~len =
    let crc = ref (Int32.lognot init) in
    for i = pos to pos + len - 1 do
      let idx =
        Int32.to_int
          (Int32.logand (Int32.logxor !crc (Int32.of_int (Char.code s.[i]))) 0xffl)
      in
      crc := Int32.logxor table.(idx) (Int32.shift_right_logical !crc 8)
    done;
    Int32.lognot !crc

  let crc ?init s = crc_sub ?init s ~pos:0 ~len:(String.length s)

  let num x = if x = infinity then "inf" else Printf.sprintf "%.17g" x

  let delta_to_string = function
    | D.User_leave slot -> Printf.sprintf "leave %d" slot
    | D.Stream_cost_change { stream; costs } ->
        Printf.sprintf "cost %d %s" stream
          (String.concat " " (Array.to_list (Array.map num costs)))
    | D.Budget_resize budgets ->
        Printf.sprintf "budget %s"
          (String.concat " " (Array.to_list (Array.map num budgets)))
    | D.User_join { utility_cap; capacity; interests } ->
        let buf = Buffer.create 128 in
        Buffer.add_string buf "join ";
        Buffer.add_string buf (num utility_cap);
        Array.iter
          (fun k ->
            Buffer.add_char buf ' ';
            Buffer.add_string buf (num k))
          capacity;
        List.iter
          (fun (s, w, loads) ->
            Buffer.add_string buf (Printf.sprintf " | %d %s" s (num w));
            Array.iter
              (fun k ->
                Buffer.add_char buf ' ';
                Buffer.add_string buf (num k))
              loads)
          interests;
        Buffer.contents buf

  let record_to_string ~seq d =
    let payload = delta_to_string d in
    let body = Printf.sprintf "%d %s" seq payload in
    Printf.sprintf "%d %s %s" seq (Printf.sprintf "%08lx" (crc body)) payload

  exception Parse_error of string

  let fail fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt

  let float_tok what tok =
    match float_of_string_opt tok with
    | Some x -> x
    | None -> fail "bad %s %S" what tok

  let int_tok what tok =
    match int_of_string_opt tok with
    | Some x -> x
    | None -> fail "bad %s %S" what tok

  let tokens line =
    String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

  let parse_exn line =
    match tokens line with
    | [ "leave"; slot ] -> D.User_leave (int_tok "slot" slot)
    | "leave" :: _ -> fail "leave expects one slot id"
    | "cost" :: stream :: costs when costs <> [] ->
        D.Stream_cost_change
          { stream = int_tok "stream" stream;
            costs = Array.of_list (List.map (float_tok "cost") costs) }
    | "cost" :: _ -> fail "cost expects a stream and costs"
    | "budget" :: budgets when budgets <> [] ->
        D.Budget_resize (Array.of_list (List.map (float_tok "budget") budgets))
    | "budget" :: _ -> fail "budget expects budget values"
    | "join" :: rest -> (
        let groups =
          List.fold_left
            (fun acc tok ->
              if tok = "|" then [] :: acc
              else
                match acc with
                | g :: tl -> (tok :: g) :: tl
                | [] -> [ [ tok ] ])
            [ [] ] rest
          |> List.rev_map List.rev
        in
        match groups with
        | head :: interest_groups ->
            let utility_cap, capacity =
              match head with
              | cap :: ks ->
                  ( float_tok "utility cap" cap,
                    Array.of_list (List.map (float_tok "capacity") ks) )
              | [] -> fail "join expects a utility cap"
            in
            let mc = Array.length capacity in
            let interests =
              List.map
                (fun g ->
                  match g with
                  | s :: w :: loads when List.length loads = mc ->
                      ( int_tok "stream" s,
                        float_tok "utility" w,
                        Array.of_list (List.map (float_tok "load") loads) )
                  | _ ->
                      fail "join interest expects <stream> <w> and %d loads" mc)
                interest_groups
            in
            D.User_join { utility_cap; capacity; interests }
        | [] -> fail "empty join")
    | kw :: _ -> fail "unknown keyword %S" kw
    | [] -> fail "empty line"

  let of_string_result line =
    match parse_exn line with
    | d -> Ok d
    | exception Parse_error msg -> Error ("Delta.of_string: " ^ msg)

  let split3 s =
    match String.index_opt s ' ' with
    | None -> None
    | Some i -> (
        let tag = String.sub s 0 i in
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        match String.index_opt rest ' ' with
        | None -> Some (tag, rest, "")
        | Some j ->
            Some
              ( tag,
                String.sub rest 0 j,
                String.sub rest (j + 1) (String.length rest - j - 1) ))

  let two_ints rest =
    match String.split_on_char ' ' rest |> List.filter (fun t -> t <> "") with
    | [ a; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some a, Some b -> Some (a, b)
        | _ -> None)
    | _ -> None

  let frame_of_string s =
    match split3 s with
    | None -> Error "not a replication frame"
    | Some (tag, term_tok, rest) -> (
        match int_of_string_opt term_tok with
        | None -> Error (Printf.sprintf "bad term %S" term_tok)
        | Some term -> (
            match tag with
            | "D" when rest <> "" -> Ok (G.Frame.Data { term; line = rest })
            | "S" when rest <> "" -> Ok (G.Frame.Shock { term; line = rest })
            | "H" -> (
                match two_ints rest with
                | Some (last_seq, tick) ->
                    Ok (G.Frame.Heartbeat { term; last_seq; tick })
                | None -> Error "bad heartbeat frame")
            | "L" -> (
                match two_ints rest with
                | Some (last_seq, successor) ->
                    Ok (G.Frame.Lease { term; last_seq; successor })
                | None -> Error "bad lease frame")
            | _ -> Error (Printf.sprintf "unknown frame tag %S" tag)))

  let record_of_string line =
    match String.index_opt line ' ' with
    | None -> Error "not a WAL record (no sequence field)"
    | Some i -> (
        let seq_tok = String.sub line 0 i in
        match int_of_string_opt seq_tok with
        | None -> Error (Printf.sprintf "bad sequence number %S" seq_tok)
        | Some seq when seq < 1 ->
            Error (Printf.sprintf "bad sequence number %S" seq_tok)
        | Some seq -> (
            let rest = String.sub line (i + 1) (String.length line - i - 1) in
            match String.index_opt rest ' ' with
            | None -> Error "not a WAL record (no checksum field)"
            | Some j -> (
                let crc_tok = String.sub rest 0 j in
                let payload =
                  String.sub rest (j + 1) (String.length rest - j - 1)
                in
                match Crc32.of_hex crc_tok with
                | None -> Error (Printf.sprintf "bad checksum field %S" crc_tok)
                | Some stored ->
                    let actual = crc (Printf.sprintf "%d %s" seq payload) in
                    if actual <> stored then
                      Error
                        (Printf.sprintf "checksum mismatch (stored %s, actual %s)"
                           crc_tok (Printf.sprintf "%08lx" actual))
                    else
                      Result.map (fun d -> (seq, d)) (of_string_result payload))))
end

(* ---------- Generators ---------- *)

let special_floats =
  [| infinity; neg_infinity; 0.; -0.; 5e-324; -5e-324; 1e308; -1e308; 0.1;
     max_float; min_float; 2.2250738585072009e-308; 1.; -1.; 0.5; 123456789.;
     1e21; 1e-7; Float.nan; Float.copy_sign Float.nan (-1.); 4503599627370497.5 |]

let rand_float rng =
  match Rng.int rng 4 with
  | 0 -> special_floats.(Rng.int rng (Array.length special_floats))
  | 1 -> Int64.float_of_bits (Rng.bits64 rng)
  | 2 -> float (Rng.int rng 1000)
  | _ -> Rng.uniform rng ~lo:(-1e6) ~hi:1e6

let rand_int rng =
  match Rng.int rng 4 with
  | 0 -> Rng.int rng 100
  | 1 -> -Rng.int rng 100
  | 2 -> Int64.to_int (Rng.bits64 rng)
  | _ -> [| 0; max_int; min_int; 1; -1 |].(Rng.int rng 5)

let rand_floats rng n = Array.init n (fun _ -> rand_float rng)

let rand_delta rng =
  match Rng.int rng 4 with
  | 0 -> D.User_leave (rand_int rng)
  | 1 ->
      D.Stream_cost_change
        { stream = rand_int rng; costs = rand_floats rng (1 + Rng.int rng 5) }
  | 2 -> D.Budget_resize (rand_floats rng (1 + Rng.int rng 5))
  | _ ->
      let mc = Rng.int rng 4 in
      D.User_join
        { utility_cap = rand_float rng;
          capacity = rand_floats rng mc;
          interests =
            List.init (Rng.int rng 5) (fun _ ->
                (rand_int rng, rand_float rng, rand_floats rng mc)) }

(* Deltas compared bit for bit, so NaN payloads and the sign of zero
   count. *)
let float_bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let floats_bits_eq a b =
  Array.length a = Array.length b && Array.for_all2 float_bits_eq a b

let delta_bits_eq a b =
  match (a, b) with
  | D.User_leave x, D.User_leave y -> x = y
  | D.Stream_cost_change x, D.Stream_cost_change y ->
      x.stream = y.stream && floats_bits_eq x.costs y.costs
  | D.Budget_resize x, D.Budget_resize y -> floats_bits_eq x y
  | D.User_join x, D.User_join y ->
      float_bits_eq x.utility_cap y.utility_cap
      && floats_bits_eq x.capacity y.capacity
      && List.length x.interests = List.length y.interests
      && List.for_all2
           (fun (s, w, l) (s', w', l') ->
             s = s' && float_bits_eq w w' && floats_bits_eq l l')
           x.interests y.interests
  | _ -> false

(* Characters that move a line between the parser's branches: token
   separators, keyword letters, number syntax, and a few that only the
   float or int parser gives meaning to. *)
let alphabet = " | 0123456789.-+e_xinfaljoeuvcbdgtsrkpENIX\t#\000\255"

let rand_char rng = alphabet.[Rng.int rng (String.length alphabet)]

let token_pool =
  [| "|"; "|"; "0"; "1"; "-3"; "17"; "0.5"; "inf"; "-inf"; "nan"; "1e308";
     "5e-324"; "x"; "1_0"; "0x1p3"; "0x1f"; "+3"; "-"; "1e"; "."; "-0";
     "99999999999999999999"; "leave"; "join"; "cost"; "budget"; "\t1"; "1 " |]

(* A line assembled from keyword and token fragments: reaches every
   error branch (arity, group shape, bad numbers) far more often than
   random bytes do. *)
let rand_token_line rng =
  let kw = [| "leave"; "cost"; "budget"; "join"; "jion"; "" |] in
  let b = Buffer.create 64 in
  Buffer.add_string b kw.(Rng.int rng (Array.length kw));
  for _ = 1 to Rng.int rng 12 do
    Buffer.add_string b (if Rng.int rng 8 = 0 then "  " else " ");
    Buffer.add_string b token_pool.(Rng.int rng (Array.length token_pool))
  done;
  Buffer.contents b

let mutate rng s =
  let b = Buffer.create (String.length s + 8) in
  let n = String.length s in
  if n = 0 then String.make 1 (rand_char rng)
  else begin
    let i = Rng.int rng n in
    (match Rng.int rng 5 with
    | 0 ->
        Buffer.add_string b (String.sub s 0 i);
        Buffer.add_char b (rand_char rng);
        Buffer.add_string b (String.sub s (i + 1) (n - i - 1))
    | 1 ->
        Buffer.add_string b (String.sub s 0 i);
        Buffer.add_string b (String.sub s (i + 1) (n - i - 1))
    | 2 ->
        Buffer.add_string b (String.sub s 0 i);
        Buffer.add_char b (rand_char rng);
        Buffer.add_string b (String.sub s i (n - i))
    | 3 -> Buffer.add_string b (String.sub s 0 i)
    | _ ->
        Buffer.add_string b s;
        Buffer.add_string b " | ";
        Buffer.add_string b (String.sub s i (n - i)));
    Buffer.contents b
  end

let flip_bit rng s =
  if s = "" then s
  else begin
    let b = Bytes.of_string s in
    let i = Rng.int rng (Bytes.length b) in
    Bytes.set b i
      (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int rng 8)));
    Bytes.to_string b
  end

let random_bytes rng n = String.init n (fun _ -> Char.chr (Rng.int rng 256))

(* ---------- Encoder bytes ---------- *)

let encoder_prop seed =
  let rng = Rng.create seed in
  List.for_all
    (fun _ ->
      let d = rand_delta rng in
      let seq = 1 + Rng.int rng (if Rng.bool rng then 1000 else max_int - 1) in
      D.to_string d = Ref.delta_to_string d
      && W.record_to_string ~seq d = Ref.record_to_string ~seq d)
    (List.init 20 Fun.id)

let test_encoder_special_floats () =
  Array.iter
    (fun x ->
      let d = D.Budget_resize [| x; x |] in
      Alcotest.(check string)
        (Printf.sprintf "budget %h" x)
        (Ref.delta_to_string d) (D.to_string d);
      Alcotest.(check string)
        (Printf.sprintf "record %h" x)
        (Ref.record_to_string ~seq:7 d)
        (W.record_to_string ~seq:7 d))
    special_floats;
  (* Empty arrays do not parse back, but their bytes are pinned too. *)
  List.iter
    (fun d -> Alcotest.(check string) "empty" (Ref.delta_to_string d) (D.to_string d))
    [ D.Budget_resize [||];
      D.Stream_cost_change { stream = 3; costs = [||] };
      D.User_join { utility_cap = 1.; capacity = [||]; interests = [] } ]

(* ---------- Parser differential ---------- *)

let same_verdict line =
  match (D.of_string_result line, Ref.of_string_result line) with
  | Ok a, Ok b -> delta_bits_eq a b
  | Error a, Error b -> a = b
  | _ -> false

(* Replication frames must also decode exactly as the parser they
   replaced did. *)
let same_frame_verdict s =
  match G.Frame.of_string s with
  | r -> r = Ref.frame_of_string s
  | exception _ -> false

let same_record_verdict line =
  match (W.record_of_string line, Ref.record_of_string line) with
  | Ok (s, a), Ok (s', b) -> s = s' && delta_bits_eq a b
  | Error a, Error b -> a = b
  | _ -> false

let mutated rng s =
  let m = ref s in
  for _ = 1 to 1 + Rng.int rng 3 do
    m := mutate rng !m
  done;
  !m

(* A record whose sequence field is rewritten in another integer form
   but whose CRC is made to match: both decoders must accept it at the
   same seq. *)
let reframed rng line =
  match String.index_opt line ' ' with
  | None -> line
  | Some i ->
      let seq = String.sub line 0 i in
      let form = [| "0" ^ seq; "+" ^ seq; "0x" ^ Printf.sprintf "%x" (int_of_string seq); "-" ^ seq |] in
      let tok = form.(Rng.int rng (Array.length form)) in
      let payload = String.sub line (i + 10) (String.length line - i - 10) in
      let body_seq = match int_of_string_opt tok with Some v -> v | None -> 0 in
      Printf.sprintf "%s %08lx %s" tok
        (Ref.crc (Printf.sprintf "%d %s" body_seq payload))
        payload

let parser_prop seed =
  let rng = Rng.create seed in
  List.for_all
    (fun _ ->
      let d = rand_delta rng in
      let valid = Ref.delta_to_string d in
      let record = Ref.record_to_string ~seq:(1 + Rng.int rng 100_000) d in
      same_verdict valid
      && same_verdict (mutated rng valid)
      && same_verdict (rand_token_line rng)
      && same_verdict
           (String.init (Rng.int rng 24) (fun _ -> rand_char rng))
      && same_record_verdict record
      && same_record_verdict (mutated rng record)
      && same_record_verdict (flip_bit rng record)
      && same_record_verdict (reframed rng record))
    (List.init 20 Fun.id)

let test_parser_error_order () =
  (* Lines with more than one bad token: the message must name the
     same token the reference names. *)
  List.iter
    (fun line ->
      Alcotest.(check bool) line true (same_verdict line))
    [ ""; "   "; "leave"; "leave x"; "leave 1 2"; "leave x y"; "cost";
      "cost 1"; "cost x y"; "cost x 1"; "cost 1 y z"; "budget"; "budget x y";
      "join"; "join |"; "join x y"; "join x 1 | 1 2 3"; "join 1 1 | x y z";
      "join 1 1 | 1 2"; "join 1 1 | 1 2 3 |"; "join 1 | 0 1 | q"; "bogus 1";
      "join 1 1 | 1 2 3 | 4 5"; "join inf | 3 0.5"; "  leave   4  ";
      "join 1 |x 2 3"; "cost 1_0 0x1p3"; "leave 0x1f"; "leave +3" ];
  List.iter
    (fun frame -> Alcotest.(check bool) frame true (same_frame_verdict frame))
    [ ""; "D"; "D "; "D 5"; "D 5 "; "D 5  x"; "S 1 y"; "H 1 2"; "H 1 2 3";
      "H 1  2 3"; "H 1"; "L 1 2 3"; "L x 2 3"; "X 1 y"; "D x y"; " D 1 y";
      "DD 1 y" ]

(* ---------- CRC-32 ---------- *)

let test_crc32_known_answer () =
  check_bool "check value" true (Crc32.digest "123456789" = 0xcbf43926l);
  Alcotest.(check string) "hex" "cbf43926" (Crc32.to_hex (Crc32.digest "123456789"));
  check_bool "empty" true (Crc32.digest "" = 0l);
  List.iter
    (fun (pos, len) ->
      match Crc32.digest_sub "abc" ~pos ~len with
      | _ -> Alcotest.failf "digest_sub accepted pos %d len %d" pos len
      | exception Invalid_argument _ -> ())
    [ (-1, 1); (0, -1); (0, 4); (3, 1); (4, 0) ]

let crc_prop seed =
  let rng = Rng.create seed in
  let a = random_bytes rng (Rng.int rng 300) in
  let b = random_bytes rng (Rng.int rng 300) in
  let init = Int64.to_int32 (Rng.bits64 rng) in
  let s = a ^ b in
  let pos = Rng.int rng (String.length s + 1) in
  let len = Rng.int rng (String.length s - pos + 1) in
  Crc32.digest a = Ref.crc a
  && Crc32.digest ~init a = Ref.crc ~init a
  && Crc32.digest ~init:(Crc32.digest a) b = Crc32.digest s
  && Crc32.digest ~init:(Crc32.digest a) b = Ref.crc ~init:(Ref.crc a) b
  && Crc32.digest_sub ~init s ~pos ~len = Ref.crc_sub ~init s ~pos ~len

(* ---------- Golden WAL ---------- *)

(* test/golden/codec.wal was written by the Printf-based encoder; the
   current one must reproduce it byte for byte, and recovery must read
   back the same deltas. *)
let golden_deltas =
  [ D.User_join
      { utility_cap = infinity;
        capacity = [| 12.5; 0.1 |];
        interests =
          [ (0, 3.25, [| 1.; 0.30000000000000004 |]);
            (17, 5e-324, [| -0.; 1e308 |]) ] };
    D.User_join { utility_cap = 7.; capacity = [||]; interests = [ (2, 1., [||]) ] };
    D.User_leave 0;
    D.Stream_cost_change { stream = 3; costs = [| 0.1; infinity; -0.; 2.5e-7 |] };
    D.Budget_resize [| 1e308; 4.9406564584124654e-324; 123456789.125 |];
    D.User_leave 4611686018427387903;
    D.Stream_cost_change { stream = -2; costs = [| neg_infinity |] };
    D.Budget_resize [| 2.2250738585072014e-308; 1e21; 1e-7; 100. |] ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_golden_wal () =
  let golden = read_file "golden/codec.wal" in
  Alcotest.(check string) "encoder bytes" golden (W.to_string ~first_seq:41 golden_deltas);
  match W.recover_string golden with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
      check_int "no quarantine" 0 (List.length r.W.quarantined);
      check_int "last seq" 48 r.W.last_seq;
      check_bool "deltas bit-exact" true
        (List.for_all2
           (fun (_, d) d' -> delta_bits_eq d d')
           r.W.records golden_deltas)

(* ---------- Untrusted decoders never raise ---------- *)

let no_raise f x = match f x with _ -> true | exception _ -> false

(* Random bytes, truncations, bit flips and mutations of a valid
   encoding. *)
let hostile_variants rng valid =
  let n = String.length valid in
  [ random_bytes rng (Rng.int rng 64);
    String.sub valid 0 (Rng.int rng (n + 1));
    flip_bit rng valid;
    flip_bit rng (flip_bit rng valid);
    mutate rng valid ]

let decode_frames bytes =
  let dec = FC.Decoder.create () in
  FC.Decoder.feed dec bytes;
  let rec go k =
    if k > 0 then
      match FC.Decoder.next dec with Ok (Some _) -> go (k - 1) | Ok None | Error _ -> ()
  in
  go 16

let never_raise_prop seed =
  let rng = Rng.create seed in
  let d = rand_delta rng in
  let seq = 1 + Rng.int rng 1000 in
  let record = W.record_to_string ~seq d in
  let frame = G.Frame.to_string (G.Frame.Data { term = Rng.int rng 9; line = record }) in
  let hb = G.Frame.to_string (G.Frame.Heartbeat { term = 1; last_seq = seq; tick = 3 }) in
  let log = W.to_string [ d; rand_delta rng; rand_delta rng ] in
  let wire = FC.encode frame ^ FC.encode hb in
  List.for_all (no_raise D.of_string_result) (hostile_variants rng (D.to_string d))
  && List.for_all (no_raise W.record_of_string) (hostile_variants rng record)
  && List.for_all (no_raise W.recover_string) (hostile_variants rng log)
  && no_raise W.recover_string (W.magic ^ "\n" ^ random_bytes rng 200)
  && List.for_all same_frame_verdict (frame :: hostile_variants rng frame)
  && List.for_all same_frame_verdict (hb :: hostile_variants rng hb)
  && List.for_all (no_raise decode_frames) (hostile_variants rng wire)

(* ---------- Engine state files ---------- *)

module K = Engine.Checkpoint
module S = Engine.Snapshot

(* A small world's snapshot (one full increment) and checkpoint chain
   (a full increment and two diffs). *)
let state_files =
  lazy
    (let inst = random_mmd ~seed:5 ~num_streams:6 ~num_users:5 ~m:2 ~mc:1 ~skew:2. in
     let log =
       Engine.Churn.generate ~rng:(Rng.create 6) (Engine.View.of_instance inst)
         { Engine.Churn.default with deltas = 30 }
     in
     let ctrl = Engine.Controller.create ~policy:(Engine.Controller.Every 8) inst in
     let path = Filename.temp_file "codec" ".ckpt" in
     Sys.remove path;
     let w = K.create_writer ~path ctrl in
     List.iteri
       (fun i d ->
         K.note w (Engine.Controller.apply ctrl d);
         if (i + 1) mod 10 = 0 then K.checkpoint w ctrl)
       log;
     K.close_writer w;
     let chain = read_file path in
     Sys.remove path;
     (S.save ctrl, chain))

(* The frames of a well-formed state file as (kind, covers, body), and
   back with lengths and checksums recomputed. *)
let frames_of text =
  let rec go pos acc =
    if pos >= String.length text then List.rev acc
    else
      let nl = String.index_from text pos '\n' in
      match String.split_on_char ' ' (String.sub text pos (nl - pos)) with
      | [ kind; covers; len; _ ] ->
          let len = int_of_string len in
          go (nl + 1 + len) ((kind, covers, String.sub text (nl + 1) len) :: acc)
      | _ -> failwith "frames_of: bad header"
  in
  go (String.length K.magic + 1) []

let state_of frames =
  String.concat ""
    ((K.magic ^ "\n")
    :: List.map
         (fun (kind, covers, body) ->
           Printf.sprintf "%s %s %d %s\n%s" kind covers (String.length body)
             (Crc32.to_hex (Crc32.digest body))
             body)
         frames)

let hostile_numbers =
  [| "-1"; "0"; "1"; "3"; "7"; "99999999999"; "4611686018427387903"; "nan";
     "inf"; "-0x1p+0"; "0x1p+1023"; "x"; ""; "slot"; "%%plan"; "catalog" |]

(* One line of the body changed: a token swapped for a hostile number,
   the line dropped, duplicated or byte-mutated, or two lines swapped. *)
let mutate_body rng body =
  let lines = Array.of_list (String.split_on_char '\n' body) in
  let n = Array.length lines in
  let i = Rng.int rng n in
  let lines =
    match Rng.int rng 5 with
    | 0 ->
        let toks = Array.of_list (String.split_on_char ' ' lines.(i)) in
        toks.(Rng.int rng (Array.length toks)) <-
          hostile_numbers.(Rng.int rng (Array.length hostile_numbers));
        lines.(i) <- String.concat " " (Array.to_list toks);
        Array.to_list lines
    | 1 -> List.filteri (fun j _ -> j <> i) (Array.to_list lines)
    | 2 ->
        List.concat (List.mapi (fun j l -> if j = i then [ l; l ] else [ l ]) (Array.to_list lines))
    | 3 ->
        lines.(i) <- mutate rng lines.(i);
        Array.to_list lines
    | _ ->
        let j = Rng.int rng n in
        let t = lines.(i) in
        lines.(i) <- lines.(j);
        lines.(j) <- t;
        Array.to_list lines
  in
  String.concat "\n" lines

let load_is_error text = Result.is_error (S.load_result text)

let state_never_raise_prop seed =
  let rng = Rng.create seed in
  let snapshot, chain = Lazy.force state_files in
  let reframed text =
    let frames = frames_of text in
    let k = Rng.int rng (List.length frames) in
    state_of
      (List.mapi
         (fun j (kind, covers, body) ->
           (kind, covers, if j = k then mutate_body rng body else body))
         frames)
  in
  let variants =
    (K.magic ^ "\n" ^ random_bytes rng 200)
    :: reframed snapshot :: reframed chain
    :: (hostile_variants rng snapshot @ hostile_variants rng chain)
  in
  List.for_all (no_raise S.load_result) variants
  && List.for_all (no_raise K.recover_string) variants
  (* A snapshot must be whole: every single flipped bit is caught, by
     the checksum or by the header's agreement with the body. *)
  && load_is_error (flip_bit rng snapshot)
  && load_is_error (random_bytes rng (Rng.int rng 300))

let test_state_truncations () =
  let snapshot, chain = Lazy.force state_files in
  for n = 0 to String.length snapshot - 1 do
    let cut = String.sub snapshot 0 n in
    if not (load_is_error cut) then Alcotest.failf "snapshot cut at %d loaded" n;
    if not (no_raise K.recover_string cut) then Alcotest.failf "snapshot cut at %d raised" n
  done;
  for n = 0 to String.length chain - 1 do
    if not (no_raise K.recover_string (String.sub chain 0 n)) then
      Alcotest.failf "chain cut at %d raised" n
  done;
  (* The damage is named after the first bad frame. *)
  let contains_msg text sub =
    match S.load_result text with Error msg -> contains msg sub | Ok _ -> false
  in
  check_bool "torn body says truncated" true
    (contains_msg (String.sub snapshot 0 (String.length snapshot - 1)) "truncated");
  let tail = String.length snapshot - 2 in
  let b = Bytes.of_string snapshot in
  Bytes.set b tail (if snapshot.[tail] = '1' then '2' else '1');
  check_bool "changed body says checksum" true
    (contains_msg (Bytes.to_string b) "checksum");
  (* Through the file reader too: a chain torn inside its first frame
     is an error naming the truncation. *)
  let path = Filename.temp_file "codec" ".ckpt" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (String.sub chain 0 (String.length K.magic + 40)));
  let r = K.recover ~path in
  Sys.remove path;
  match r with
  | Error msg -> check_bool "recover names the truncation" true (contains msg "truncated")
  | Ok _ -> Alcotest.fail "a chain with no whole frame recovered"

let suite =
  [ qtest ~count:200 "delta and record encoders match the Printf reference"
      QCheck2.Gen.(int_range 0 1_000_000) encoder_prop;
    Alcotest.test_case "encoders on special floats" `Quick
      test_encoder_special_floats;
    qtest ~count:300 "delta and record parsers agree with the reference"
      QCheck2.Gen.(int_range 0 1_000_000) parser_prop;
    Alcotest.test_case "parser error precedence and edge cases" `Quick
      test_parser_error_order;
    Alcotest.test_case "crc32 known answer and bounds" `Quick
      test_crc32_known_answer;
    qtest ~count:300 "crc32 agrees with the Int32 reference"
      QCheck2.Gen.(int_range 0 1_000_000) crc_prop;
    Alcotest.test_case "golden WAL reproduced byte for byte" `Quick
      test_golden_wal;
    qtest ~count:300 "untrusted decoders never raise"
      QCheck2.Gen.(int_range 0 1_000_000) never_raise_prop;
    qtest ~count:300 "engine state decoders never raise"
      QCheck2.Gen.(int_range 0 1_000_000) state_never_raise_prop;
    Alcotest.test_case "engine state truncations are errors" `Quick
      test_state_truncations ]
