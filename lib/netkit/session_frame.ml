exception Closed

let max_frame = 1 lsl 20

let check_length len =
  if len < 0 || len > max_frame then
    raise (Wire.Malformed (Printf.sprintf "client frame length %d" len))

let rec really_read fd buf pos len =
  if len > 0 then begin
    let n =
      try Unix.read fd buf pos len
      with Unix.Unix_error (Unix.EINTR, _, _) -> -1
    in
    if n = 0 then raise Closed;
    if n < 0 then really_read fd buf pos len
    else really_read fd buf (pos + n) (len - n)
  end

let recv fd =
  let hdr = Bytes.create 4 in
  really_read fd hdr 0 4;
  let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
  check_length len;
  let body = Bytes.create len in
  really_read fd body 0 len;
  Bytes.unsafe_to_string body

let send fd msg =
  let len = String.length msg in
  if len > max_frame then
    invalid_arg "Session_frame.send: message exceeds the frame cap";
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.blit_string msg 0 b 4 len;
  let rec write pos remaining =
    if remaining > 0 then begin
      let n =
        try Unix.write fd b pos remaining
        with Unix.Unix_error (Unix.EINTR, _, _) -> 0
      in
      write (pos + n) (remaining - n)
    end
  in
  write 0 (4 + len)

(* Non-blocking side: bytes [b.[pos .. len)] of each queue are not
   yet parsed (input) or not yet written (output). *)
type queue = { mutable b : Bytes.t; mutable pos : int; mutable len : int }
type stream = { fd : Unix.file_descr; inp : queue; out : queue }

let stream fd =
  Unix.set_nonblock fd;
  let queue n = { b = Bytes.create n; pos = 0; len = 0 } in
  { fd; inp = queue 4096; out = queue 256 }

(* Move the live bytes to the front and make room for [n] more. *)
let reserve q n =
  let live = q.len - q.pos in
  if q.pos > 0 then begin
    Bytes.blit q.b q.pos q.b 0 live;
    q.pos <- 0;
    q.len <- live
  end;
  let size = Bytes.length q.b in
  if live + n > size then q.b <- Bytes.extend q.b 0 (max size (live + n - size))

(* A full input buffer doubles; every length prefix in it has been
   checked, so it holds at most one capped frame. *)
let input s f =
  reserve s.inp 1;
  let q = s.inp in
  match Unix.read s.fd q.b q.len (Bytes.length q.b - q.len) with
  | 0 -> false
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      true
  | n ->
      q.len <- q.len + n;
      let rec frames () =
        if q.len - q.pos >= 4 then begin
          let len = Int32.to_int (Bytes.get_int32_be q.b q.pos) in
          check_length len;
          if q.len - q.pos >= 4 + len then begin
            q.pos <- q.pos + 4 + len;
            f (Bytes.sub_string q.b (q.pos - len) len);
            frames ()
          end
        end
      in
      frames ();
      true

let output s msg =
  let len = String.length msg in
  reserve s.out (4 + len);
  Bytes.set_int32_be s.out.b s.out.len (Int32.of_int len);
  Bytes.blit_string msg 0 s.out.b (s.out.len + 4) len;
  s.out.len <- s.out.len + 4 + len

let rec flush s =
  let q = s.out in
  match Unix.single_write s.fd q.b q.pos (q.len - q.pos) with
  | n when n > 0 && q.pos + n < q.len ->
      q.pos <- q.pos + n;
      flush s
  | n ->
      q.pos <- q.pos + n;
      q.len - q.pos
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush s
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      q.len - q.pos
