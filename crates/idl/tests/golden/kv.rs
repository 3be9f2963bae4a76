// Generated by idlc (spring-idl). Do not edit.


pub mod kv {

    #[derive(Clone, Debug, PartialEq)]
    pub struct KvError {
        pub reason: String,
    }

    impl KvError {
        pub fn idl_encode(&self, buf: &mut ::spring_buf::CommBuffer) {
            buf.align8();
            buf.put_string(&self.reason);
        }

        pub fn idl_decode(buf: &mut ::spring_buf::CommBuffer) -> ::std::result::Result<Self, ::subcontract::SpringError> {
            buf.skip_align8()?;
            Ok(Self {
                reason: buf.get_string()?,
            })
        }
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    pub enum Durability {
        VolatileStore,
        PersistentStore,
    }

    impl Durability {
        pub fn idl_encode(&self, buf: &mut ::spring_buf::CommBuffer) {
            buf.put_u32(match self {
                Durability::VolatileStore => 0,
                Durability::PersistentStore => 1,
            });
        }

        pub fn idl_decode(buf: &mut ::spring_buf::CommBuffer) -> ::std::result::Result<Self, ::subcontract::SpringError> {
            Ok(match buf.get_u32()? {
                0 => Durability::VolatileStore,
                1 => Durability::PersistentStore,
                __tag => return Err(::subcontract::SpringError::Buf(::spring_buf::BufError::InvalidEnumTag(__tag))),
            })
        }

        /// Flat-frame check: a single in-range `u32` tag.
        pub fn validate(__b: &[u8]) -> ::std::result::Result<(), ::spring_buf::WireError> {
            ::spring_buf::flat::check_len(__b, 4)?;
            ::spring_buf::flat::check_tag(__b, 0, 2)?;
            Ok(())
        }

        /// Decodes a tag already range-checked by `validate`.
        #[doc(hidden)]
        pub fn from_tag(__tag: u32) -> Self {
            match __tag {
                0 => Durability::VolatileStore,
                1 => Durability::PersistentStore,
                __t => unreachable!("enum tag {} after validate", __t),
            }
        }
    }

    #[derive(Clone, Debug, PartialEq)]
    pub struct Entry {
        pub key: String,
        pub value: Vec<u8>,
        pub version: i64,
    }

    impl Entry {
        pub fn idl_encode(&self, buf: &mut ::spring_buf::CommBuffer) {
            buf.align8();
            buf.put_string(&self.key);
            buf.put_bytes(&self.value);
            buf.put_i64(self.version);
        }

        pub fn idl_decode(buf: &mut ::spring_buf::CommBuffer) -> ::std::result::Result<Self, ::subcontract::SpringError> {
            buf.skip_align8()?;
            Ok(Self {
                key: buf.get_string()?,
                value: buf.get_bytes()?,
                version: buf.get_i64()?,
            })
        }
    }

    /// Run-time type information for `kv::bucket`.
    pub static BUCKET_TYPE: ::subcontract::TypeInfo = ::subcontract::TypeInfo {
        name: "kv::bucket",
        parents: &[&::subcontract::OBJECT_TYPE],
        default_subcontract: ::subcontract::ScId::from_name("singleton"),
    };

    /// Operation numbers for `kv::bucket`.
    pub mod bucket_ops {
        pub const GET_SIZE: u32 = 0xa71c3929;
        pub const GET_MODE: u32 = 0xf04e0e6b;
        pub const SET_MODE: u32 = 0xf4ebfd17;
        pub const GET: u32 = 0x540ca757;
        pub const PUT: u32 = 0x697299ee;
        pub const REMOVE_KEY: u32 = 0x4a91521d;
        pub const SCAN: u32 = 0xece838e8;
        pub const VERSION_OF: u32 = 0x0fe2d909;
    }

    /// Errors raised by `kv::bucket`'s own operations.
    #[derive(Debug)]
    pub enum BucketError {
        KvError(super::kv::KvError),
        System(::subcontract::SpringError),
    }

    impl From<::subcontract::SpringError> for BucketError {
        fn from(e: ::subcontract::SpringError) -> Self {
            BucketError::System(e)
        }
    }

    impl From<::spring_buf::BufError> for BucketError {
        fn from(e: ::spring_buf::BufError) -> Self {
            BucketError::System(::subcontract::SpringError::Buf(e))
        }
    }

    impl From<::spring_buf::WireError> for BucketError {
        fn from(e: ::spring_buf::WireError) -> Self {
            BucketError::System(::subcontract::SpringError::Wire(e))
        }
    }

    impl ::std::fmt::Display for BucketError {
        fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
            match self {
                BucketError::KvError(__e) => write!(f, "kv::kv_error: {:?}", __e),
                BucketError::System(__e) => write!(f, "{}", __e),
            }
        }
    }

    impl ::std::error::Error for BucketError {}

    /// Client stub for `kv::bucket` (subcontract-independent).
    #[derive(Debug)]
    pub struct Bucket {
        obj: ::subcontract::SpringObj,
    }

    impl Bucket {
        /// Wraps an object, verifying its run-time type.
        pub fn from_obj(obj: ::subcontract::SpringObj) -> ::subcontract::Result<Self> {
            obj.narrow(&BUCKET_TYPE)?;
            Ok(Bucket { obj })
        }

        /// The wrapped object.
        pub fn obj(&self) -> &::subcontract::SpringObj {
            &self.obj
        }

        /// Unwraps the object.
        pub fn into_obj(self) -> ::subcontract::SpringObj {
            self.obj
        }

        /// Shallow-copies the object (§7).
        pub fn copy(&self) -> ::subcontract::Result<Self> {
            Ok(Bucket { obj: self.obj.copy()? })
        }

        /// Invokes `kv::bucket::get_size` on the remote object.
        pub fn get_size(&self) -> ::std::result::Result<i64, super::kv::BucketError> {
            let mut __call = self.obj.start_call(super::kv::bucket_ops::GET_SIZE)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 8)?;
                    let __r0 = ::spring_buf::flat::get_i64(__flat, 0);
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::kv::BucketError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `kv::bucket::get_mode` on the remote object.
        pub fn get_mode(&self) -> ::std::result::Result<super::kv::Durability, super::kv::BucketError> {
            let mut __call = self.obj.start_call(super::kv::bucket_ops::GET_MODE)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 4)?;
                    ::spring_buf::flat::check_tag(__flat, 0, 2)?;
                    let __r0 = super::kv::Durability::from_tag(::spring_buf::flat::get_u32(__flat, 0));
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::kv::BucketError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `kv::bucket::set_mode` on the remote object.
        pub fn set_mode(&self, value: super::kv::Durability) -> ::std::result::Result<(), super::kv::BucketError> {
            let mut __call = self.obj.start_call(super::kv::bucket_ops::SET_MODE)?;
            __call.align8();
            (value).idl_encode(&mut __call);
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    Ok(())
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::kv::BucketError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `kv::bucket::get` on the remote object.
        pub fn get(&self, key: &str) -> ::std::result::Result<Vec<u8>, super::kv::BucketError> {
            let mut __call = self.obj.start_call(super::kv::bucket_ops::GET)?;
            (&mut __call).put_string(&(*key));
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __r0 = (&mut __reply).get_bytes()?;
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "kv::kv_error" => Err(super::kv::BucketError::KvError(super::kv::KvError::idl_decode(&mut __reply)?)),
                    __other => Err(super::kv::BucketError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `kv::bucket::put` on the remote object.
        pub fn put(&self, key: &str, value: &[u8]) -> ::std::result::Result<(), super::kv::BucketError> {
            let mut __call = self.obj.start_call(super::kv::bucket_ops::PUT)?;
            (&mut __call).put_string(&(*key));
            (&mut __call).put_bytes(&(*value));
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    Ok(())
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::kv::BucketError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `kv::bucket::remove_key` on the remote object.
        pub fn remove_key(&self, key: &str) -> ::std::result::Result<bool, super::kv::BucketError> {
            let mut __call = self.obj.start_call(super::kv::bucket_ops::REMOVE_KEY)?;
            (&mut __call).put_string(&(*key));
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 1)?;
                    ::spring_buf::flat::check_bool(__flat, 0)?;
                    let __r0 = ::spring_buf::flat::get_bool(__flat, 0);
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::kv::BucketError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `kv::bucket::scan` on the remote object.
        pub fn scan(&self, prefix: &str) -> ::std::result::Result<Vec<super::kv::Entry>, super::kv::BucketError> {
            let mut __call = self.obj.start_call(super::kv::bucket_ops::SCAN)?;
            (&mut __call).put_string(&(*prefix));
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __r0 = { let __n = (&mut __reply).get_seq_len(16)?; let mut __v = Vec::with_capacity(__n); for _ in 0..__n { __v.push(super::kv::Entry::idl_decode(&mut __reply)?); } __v };
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::kv::BucketError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `kv::bucket::version_of` on the remote object.
        pub fn version_of(&self, key: &str) -> ::std::result::Result<i64, super::kv::BucketError> {
            let mut __call = self.obj.start_call(super::kv::bucket_ops::VERSION_OF)?;
            (&mut __call).put_string(&(*key));
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 8)?;
                    let __r0 = ::spring_buf::flat::get_i64(__flat, 0);
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "kv::kv_error" => Err(super::kv::BucketError::KvError(super::kv::KvError::idl_decode(&mut __reply)?)),
                    __other => Err(super::kv::BucketError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }
    }

    /// Server application interface for `kv::bucket`.
    pub trait BucketServant: Send + Sync + 'static {
        /// Serves `kv::bucket::get_size`.
        fn get_size(&self) -> ::std::result::Result<i64, super::kv::BucketError>;
        /// Serves `kv::bucket::get_mode`.
        fn get_mode(&self) -> ::std::result::Result<super::kv::Durability, super::kv::BucketError>;
        /// Serves `kv::bucket::set_mode`.
        fn set_mode(&self, value: super::kv::Durability) -> ::std::result::Result<(), super::kv::BucketError>;
        /// Serves `kv::bucket::get`.
        fn get(&self, key: String) -> ::std::result::Result<Vec<u8>, super::kv::BucketError>;
        /// Serves `kv::bucket::put`.
        fn put(&self, key: String, value: Vec<u8>) -> ::std::result::Result<(), super::kv::BucketError>;
        /// Serves `kv::bucket::remove_key`.
        fn remove_key(&self, key: String) -> ::std::result::Result<bool, super::kv::BucketError>;
        /// Serves `kv::bucket::scan`.
        fn scan(&self, prefix: String) -> ::std::result::Result<Vec<super::kv::Entry>, super::kv::BucketError>;
        /// Serves `kv::bucket::version_of`.
        fn version_of(&self, key: String) -> ::std::result::Result<i64, super::kv::BucketError>;
        /// The last door identifier for this object died (§7).
        fn unreferenced(&self) {}
    }

    /// Server-side stub (skeleton) for `kv::bucket`: unmarshals arguments and calls into the server application (§4).
    pub struct BucketSkeleton<S: BucketServant> {
        servant: ::std::sync::Arc<S>,
    }

    impl<S: BucketServant> BucketSkeleton<S> {
        /// Wraps a servant for export through any server subcontract.
        pub fn new(servant: ::std::sync::Arc<S>) -> ::std::sync::Arc<Self> {
            ::std::sync::Arc::new(BucketSkeleton { servant })
        }
    }

    impl<S: BucketServant> ::subcontract::Dispatch for BucketSkeleton<S> {
        fn type_info(&self) -> &'static ::subcontract::TypeInfo {
            &BUCKET_TYPE
        }

        fn dispatch(&self, __sctx: &::subcontract::ServerCtx, __op: u32, __args: &mut ::spring_buf::CommBuffer, __reply: &mut ::spring_buf::CommBuffer) -> ::subcontract::Result<()> {
            match __op {
                __x if __x == super::kv::bucket_ops::GET_SIZE => {
                    match self.servant.get_size() {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            __reply.put_i64(__r0);
                        }
                        Err(super::kv::BucketError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::kv::bucket_ops::GET_MODE => {
                    match self.servant.get_mode() {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            (__r0).idl_encode(__reply);
                        }
                        Err(super::kv::BucketError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::kv::bucket_ops::SET_MODE => {
                    let __flat = __args.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 4)?;
                    ::spring_buf::flat::check_tag(__flat, 0, 2)?;
                    let __a_value = super::kv::Durability::from_tag(::spring_buf::flat::get_u32(__flat, 0));
                    match self.servant.set_mode(__a_value) {
                        Ok(()) => {
                            ::subcontract::encode_ok(__reply);
                        }
                        Err(super::kv::BucketError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::kv::bucket_ops::GET => {
                    let __a_key = __args.get_string()?;
                    match self.servant.get(__a_key) {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.put_bytes(&__r0);
                        }
                        Err(super::kv::BucketError::KvError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "kv::kv_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::kv::BucketError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::kv::bucket_ops::PUT => {
                    let __a_key = __args.get_string()?;
                    let __a_value = __args.get_bytes()?;
                    match self.servant.put(__a_key, __a_value) {
                        Ok(()) => {
                            ::subcontract::encode_ok(__reply);
                        }
                        Err(super::kv::BucketError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::kv::bucket_ops::REMOVE_KEY => {
                    let __a_key = __args.get_string()?;
                    match self.servant.remove_key(__a_key) {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            __reply.put_bool(__r0);
                        }
                        Err(super::kv::BucketError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::kv::bucket_ops::SCAN => {
                    let __a_prefix = __args.get_string()?;
                    match self.servant.scan(__a_prefix) {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.put_seq_len(__r0.len());
                            for __it in &__r0 {
                                ((*__it)).idl_encode(__reply);
                            }
                        }
                        Err(super::kv::BucketError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::kv::bucket_ops::VERSION_OF => {
                    let __a_key = __args.get_string()?;
                    match self.servant.version_of(__a_key) {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            __reply.put_i64(__r0);
                        }
                        Err(super::kv::BucketError::KvError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "kv::kv_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::kv::BucketError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __other => Err(::subcontract::SpringError::UnknownOp(__other)),
            }
        }

        fn unreferenced(&self) {
            <S as BucketServant>::unreferenced(&self.servant)
        }
    }

    /// Run-time type information for `kv::store`.
    pub static STORE_TYPE: ::subcontract::TypeInfo = ::subcontract::TypeInfo {
        name: "kv::store",
        parents: &[&::subcontract::OBJECT_TYPE],
        default_subcontract: ::subcontract::ScId::from_name("singleton"),
    };

    /// Operation numbers for `kv::store`.
    pub mod store_ops {
        pub const OPEN_BUCKET: u32 = 0xe66cc114;
        pub const BUCKETS: u32 = 0x8ac9880c;
        pub const DROP_BUCKET: u32 = 0x9ade13c3;
    }

    /// Errors raised by `kv::store`'s own operations.
    #[derive(Debug)]
    pub enum StoreError {
        KvError(super::kv::KvError),
        System(::subcontract::SpringError),
    }

    impl From<::subcontract::SpringError> for StoreError {
        fn from(e: ::subcontract::SpringError) -> Self {
            StoreError::System(e)
        }
    }

    impl From<::spring_buf::BufError> for StoreError {
        fn from(e: ::spring_buf::BufError) -> Self {
            StoreError::System(::subcontract::SpringError::Buf(e))
        }
    }

    impl From<::spring_buf::WireError> for StoreError {
        fn from(e: ::spring_buf::WireError) -> Self {
            StoreError::System(::subcontract::SpringError::Wire(e))
        }
    }

    impl ::std::fmt::Display for StoreError {
        fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
            match self {
                StoreError::KvError(__e) => write!(f, "kv::kv_error: {:?}", __e),
                StoreError::System(__e) => write!(f, "{}", __e),
            }
        }
    }

    impl ::std::error::Error for StoreError {}

    /// Client stub for `kv::store` (subcontract-independent).
    #[derive(Debug)]
    pub struct Store {
        obj: ::subcontract::SpringObj,
    }

    impl Store {
        /// Wraps an object, verifying its run-time type.
        pub fn from_obj(obj: ::subcontract::SpringObj) -> ::subcontract::Result<Self> {
            obj.narrow(&STORE_TYPE)?;
            Ok(Store { obj })
        }

        /// The wrapped object.
        pub fn obj(&self) -> &::subcontract::SpringObj {
            &self.obj
        }

        /// Unwraps the object.
        pub fn into_obj(self) -> ::subcontract::SpringObj {
            self.obj
        }

        /// Shallow-copies the object (§7).
        pub fn copy(&self) -> ::subcontract::Result<Self> {
            Ok(Store { obj: self.obj.copy()? })
        }

        /// Invokes `kv::store::open_bucket` on the remote object.
        pub fn open_bucket(&self, name: &str) -> ::std::result::Result<super::kv::Bucket, super::kv::StoreError> {
            let mut __call = self.obj.start_call(super::kv::store_ops::OPEN_BUCKET)?;
            (&mut __call).put_string(&(*name));
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __r0 = ::subcontract::unmarshal_object(self.obj.ctx(), &super::kv::BUCKET_TYPE, &mut __reply)?;
                    let __r0 = super::kv::Bucket::from_obj(__r0)?;
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::kv::StoreError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `kv::store::buckets` on the remote object.
        pub fn buckets(&self) -> ::std::result::Result<Vec<String>, super::kv::StoreError> {
            let mut __call = self.obj.start_call(super::kv::store_ops::BUCKETS)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __r0 = { let __n = (&mut __reply).get_seq_len(4)?; let mut __v = Vec::with_capacity(__n); for _ in 0..__n { __v.push((&mut __reply).get_string()?); } __v };
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::kv::StoreError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `kv::store::drop_bucket` on the remote object.
        pub fn drop_bucket(&self, name: &str) -> ::std::result::Result<(), super::kv::StoreError> {
            let mut __call = self.obj.start_call(super::kv::store_ops::DROP_BUCKET)?;
            (&mut __call).put_string(&(*name));
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    Ok(())
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "kv::kv_error" => Err(super::kv::StoreError::KvError(super::kv::KvError::idl_decode(&mut __reply)?)),
                    __other => Err(super::kv::StoreError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }
    }

    /// Server application interface for `kv::store`.
    pub trait StoreServant: Send + Sync + 'static {
        /// Serves `kv::store::open_bucket`.
        fn open_bucket(&self, name: String) -> ::std::result::Result<super::kv::Bucket, super::kv::StoreError>;
        /// Serves `kv::store::buckets`.
        fn buckets(&self) -> ::std::result::Result<Vec<String>, super::kv::StoreError>;
        /// Serves `kv::store::drop_bucket`.
        fn drop_bucket(&self, name: String) -> ::std::result::Result<(), super::kv::StoreError>;
        /// The last door identifier for this object died (§7).
        fn unreferenced(&self) {}
    }

    /// Server-side stub (skeleton) for `kv::store`: unmarshals arguments and calls into the server application (§4).
    pub struct StoreSkeleton<S: StoreServant> {
        servant: ::std::sync::Arc<S>,
    }

    impl<S: StoreServant> StoreSkeleton<S> {
        /// Wraps a servant for export through any server subcontract.
        pub fn new(servant: ::std::sync::Arc<S>) -> ::std::sync::Arc<Self> {
            ::std::sync::Arc::new(StoreSkeleton { servant })
        }
    }

    impl<S: StoreServant> ::subcontract::Dispatch for StoreSkeleton<S> {
        fn type_info(&self) -> &'static ::subcontract::TypeInfo {
            &STORE_TYPE
        }

        fn dispatch(&self, __sctx: &::subcontract::ServerCtx, __op: u32, __args: &mut ::spring_buf::CommBuffer, __reply: &mut ::spring_buf::CommBuffer) -> ::subcontract::Result<()> {
            match __op {
                __x if __x == super::kv::store_ops::OPEN_BUCKET => {
                    let __a_name = __args.get_string()?;
                    match self.servant.open_bucket(__a_name) {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __r0.into_obj().marshal(__reply)?;
                        }
                        Err(super::kv::StoreError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::kv::store_ops::BUCKETS => {
                    match self.servant.buckets() {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.put_seq_len(__r0.len());
                            for __it in &__r0 {
                                __reply.put_string(&(*__it));
                            }
                        }
                        Err(super::kv::StoreError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::kv::store_ops::DROP_BUCKET => {
                    let __a_name = __args.get_string()?;
                    match self.servant.drop_bucket(__a_name) {
                        Ok(()) => {
                            ::subcontract::encode_ok(__reply);
                        }
                        Err(super::kv::StoreError::KvError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "kv::kv_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::kv::StoreError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __other => Err(::subcontract::SpringError::UnknownOp(__other)),
            }
        }

        fn unreferenced(&self) {
            <S as StoreServant>::unreferenced(&self.servant)
        }
    }
}
