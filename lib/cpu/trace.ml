module Json = Armb_json.Json

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

let length t = t.count

let dropped t = t.drop

(* Streamed: each span's object is rendered and handed to [sink] on its
   own, so neither a [Json.t] tree nor the whole document ever exists in
   memory (on a 200,000-span ring trace the document alone is 16 MB). *)
let write_chrome_json sink t =
  sink "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then sink ",";
      sink
        (Json.to_string
           (Json.Obj
              [
                ("name", Json.Str s.name);
                ("cat", Json.Str s.kind);
                ("ph", Json.Str "X");
                ("pid", Json.Int 0);
                ("tid", Json.Int s.core);
                ("ts", Json.Int s.start_cycle);
                ("dur", Json.Int (Int.max 1 s.duration));
              ])))
    (spans t);
  sink "],\"displayTimeUnit\":\"ns\"}"
