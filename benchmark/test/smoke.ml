(* Smoke test of the benchmark: run every workload at smoke size with
   tracing on, then check that the result is valid JSON, that every
   metric BENCHMARK.json declares is present and finite for every
   workload, and that every correctness check passed. *)

(* A minimal JSON reader, enough for BENCHMARK.json and the result. *)
type json = Null | Bool of bool | Num of float | Str of string | Arr of json list | Obj of (string * json) list

let parse text =
  let pos = ref 0 and len = String.length text in
  let peek () = if !pos < len then text.[!pos] else '\000' in
  let fail what = failwith (Printf.sprintf "JSON: %s at offset %d" what !pos) in
  let rec skip () =
    match peek () with
    | ' ' | '\n' | '\r' | '\t' ->
        incr pos;
        skip ()
    | _ -> ()
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %c" c) in
  let literal word v =
    if !pos + String.length word <= len && String.sub text !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string_ () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          (match peek () with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | c -> Buffer.add_char b c);
          incr pos;
          go ()
      | '\000' -> fail "unterminated string"
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
        incr pos;
        skip ();
        if peek () = '}' then (incr pos; Obj [])
        else
          let rec fields acc =
            skip ();
            let k = string_ () in
            skip ();
            expect ':';
            let v = value () in
            skip ();
            match peek () with
            | ',' -> incr pos; fields ((k, v) :: acc)
            | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          fields []
    | '[' ->
        incr pos;
        skip ();
        if peek () = ']' then (incr pos; Arr [])
        else
          let rec items acc =
            let v = value () in
            skip ();
            match peek () with
            | ',' -> incr pos; items (v :: acc)
            | ']' -> incr pos; Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
    | '"' -> Str (string_ ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while match peek () with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false do
          incr pos
        done;
        (match float_of_string_opt (String.sub text start (!pos - start)) with
        | Some f when !pos > start -> Num f
        | _ -> fail "bad value")
  in
  let v = value () in
  skip ();
  if !pos <> len then fail "trailing data";
  v

let field k = function Obj kv -> List.assoc_opt k kv | _ -> None

let names section spec =
  match field section spec with
  | Some (Arr items) ->
      List.map (fun it -> match field "name" it with Some (Str s) -> s | _ -> failwith "unnamed entry") items
  | _ -> failwith ("BENCHMARK.json: no " ^ section)

let read path = In_channel.with_open_bin path In_channel.input_all

let () =
  let spec = parse (read "../../BENCHMARK.json") in
  let workloads = names "workloads" spec in
  let declared = names "end_to_end" spec @ names "per_layer" spec in
  let out = "smoke-result.json" in
  let status =
    Unix.system
      (Printf.sprintf "../main.exe --smoke --seed 1 --trace 1 --out %s > smoke-output.txt" out)
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if status <> Unix.WEXITED 0 then problem "the benchmark exited non-zero (see smoke-output.txt)";
  let result = parse (read out) in
  List.iter
    (fun w ->
      match Option.bind (field "workloads" result) (field w) with
      | None | Some Null -> problem "%s: no result" w
      | Some r ->
          if field "correct" r <> Some (Bool true) then problem "%s: not correct" w;
          (match field "checks" r with
          | Some (Obj checks) ->
              List.iter (fun (k, v) -> if v <> Bool true then problem "%s: check failed: %s" w k) checks
          | _ -> problem "%s: no checks" w);
          List.iter
            (fun m ->
              match Option.bind (field "metrics" r) (field m) with
              | Some metric -> (
                  match field "value" metric with
                  | Some (Num v) when Float.is_finite v -> ()
                  | _ -> problem "%s: metric %s is not a finite number" w m)
              | None -> problem "%s: metric %s missing" w m)
            declared)
    workloads;
  match !problems with
  | [] -> Printf.printf "benchmark smoke: %d workloads x %d metrics ok\n" (List.length workloads) (List.length declared)
  | ps ->
      List.iter prerr_endline (List.rev ps);
      exit 1
