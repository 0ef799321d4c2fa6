type span = {
  core : int;
  kind : string;
  name : string;
  start_cycle : int;
  duration : int;
}

type t = { mutable rev_spans : span list; mutable count : int; limit : int; mutable drop : int }

let create ?(limit = 200_000) () = { rev_spans = []; count = 0; limit; drop = 0 }

let emit t s =
  if t.count < t.limit then begin
    t.rev_spans <- s :: t.rev_spans;
    t.count <- t.count + 1
  end
  else t.drop <- t.drop + 1

(* The span of one observed micro-operation: it starts at issue and
   lasts until completion. *)
let observer t : Observe.t =
 fun e ->
  let kind, name =
    match e.kind with
    | Observe.Load _ -> ("load", Printf.sprintf "ld 0x%x" e.addr)
    | Observe.Store _ -> ("store", Printf.sprintf "st 0x%x" e.addr)
    | Observe.Rmw _ -> ("rmw", Printf.sprintf "rmw 0x%x" e.addr)
    | Observe.Fence b -> ("barrier", Barrier.to_string b)
    | Observe.Compute n -> ("compute", string_of_int n ^ " ops")
  in
  let duration = e.completes_at - e.issued_at in
  emit t { core = e.core; kind; name; start_cycle = e.issued_at; duration }

let spans t = List.rev t.rev_spans

let dropped t = t.drop

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_chrome_json t =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun s ->
      if not !first then Buffer.add_char buf ',';
      first := false;
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%d,\"dur\":%d}"
           (escape s.name) (escape s.kind) s.core s.start_cycle (Int.max 1 s.duration)))
    (spans t);
  Buffer.add_string buf "],\"displayTimeUnit\":\"ns\"}";
  Buffer.contents buf

let write_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_json t))
