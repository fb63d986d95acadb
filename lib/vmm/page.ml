type t = {
  data : Bytes.t;
  mutable prot : Prot.t;
  mutable pkey : Mpk.Pkey.t;
}

let create ~prot ~pkey = { data = Bytes.make Layout.page_size '\000'; prot; pkey }

let placeholder () = { data = Bytes.empty; prot = Prot.none; pkey = Mpk.Pkey.default }
