// Generated by idlc (spring-idl). Do not edit.


pub mod fs {

    #[derive(Clone, Debug, PartialEq)]
    pub struct IoError {
        pub reason: String,
    }

    impl IoError {
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

    #[derive(Clone, Debug, PartialEq)]
    pub struct FileStat {
        pub size: i64,
        pub version: i64,
        pub writable: bool,
    }

    impl FileStat {
        pub fn idl_encode(&self, buf: &mut ::spring_buf::CommBuffer) {
            buf.align8();
            buf.put_i64(self.size);
            buf.put_i64(self.version);
            buf.put_bool(self.writable);
        }

        pub fn idl_decode(buf: &mut ::spring_buf::CommBuffer) -> ::std::result::Result<Self, ::subcontract::SpringError> {
            buf.skip_align8()?;
            Ok(Self {
                size: buf.get_i64()?,
                version: buf.get_i64()?,
                writable: buf.get_bool()?,
            })
        }

        /// Exact flat-frame size from an 8-aligned frame start.
        pub const fn footprint() -> usize {
            17
        }

        /// Bounds-and-tags check over one flat frame; views and
        /// accessors are infallible afterwards (validate-then-cast).
        pub fn validate(__b: &[u8]) -> ::std::result::Result<(), ::spring_buf::WireError> {
            ::spring_buf::flat::check_len(__b, 17)?;
            ::spring_buf::flat::check_bool(__b, 16)?;
            Ok(())
        }
    }

    /// Zero-copy view over a validated `FileStat` flat frame.
    #[derive(Clone, Copy, Debug)]
    pub struct FileStatView<'a> {
        bytes: &'a [u8],
    }

    impl<'a> FileStatView<'a> {
        /// Validates `bytes` and wraps them without copying.
        pub fn new(bytes: &'a [u8]) -> ::std::result::Result<Self, ::spring_buf::WireError> {
            FileStat::validate(bytes)?;
            Ok(FileStatView { bytes })
        }

        /// Wraps bytes already covered by an enclosing `validate`.
        #[doc(hidden)]
        pub fn assume_valid(bytes: &'a [u8]) -> Self {
            FileStatView { bytes }
        }

        /// The underlying frame bytes.
        pub fn as_bytes(&self) -> &'a [u8] {
            self.bytes
        }

        /// Reads `size` in place (offset 0).
        pub fn size(&self) -> i64 {
            ::spring_buf::flat::get_i64(self.bytes, 0)
        }

        /// Reads `version` in place (offset 8).
        pub fn version(&self) -> i64 {
            ::spring_buf::flat::get_i64(self.bytes, 8)
        }

        /// Reads `writable` in place (offset 16).
        pub fn writable(&self) -> bool {
            ::spring_buf::flat::get_bool(self.bytes, 16)
        }

        /// Copies the view into an owned value (scalar loads only).
        pub fn to_owned(self) -> FileStat {
            FileStat {
                size: self.size(),
                version: self.version(),
                writable: self.writable(),
            }
        }
    }

    impl<'a> ::subcontract::FlatMessage<'a> for FileStatView<'a> {
        const FOOTPRINT: usize = 17;

        fn validate(__b: &[u8]) -> ::std::result::Result<(), ::spring_buf::WireError> {
            FileStat::validate(__b)
        }

        fn view(__b: &'a [u8]) -> ::std::result::Result<Self, ::spring_buf::WireError> {
            Self::new(__b)
        }
    }

    /// Run-time type information for `fs::file`.
    pub static FILE_TYPE: ::subcontract::TypeInfo = ::subcontract::TypeInfo {
        name: "fs::file",
        parents: &[&::subcontract::OBJECT_TYPE],
        default_subcontract: ::subcontract::ScId::from_name("singleton"),
    };

    /// Operation numbers for `fs::file`.
    pub mod file_ops {
        pub const SIZE: u32 = 0x23a0d95c;
        pub const READ: u32 = 0xcedfa3c5;
        pub const WRITE: u32 = 0xbe269f5c;
        pub const TRUNCATE: u32 = 0x423c87b7;
        pub const STAT: u32 = 0xd33b3297;
        pub const VERSION: u32 = 0x4671ae97;
    }

    /// Errors raised by `fs::file`'s own operations.
    #[derive(Debug)]
    pub enum FileError {
        IoError(super::fs::IoError),
        System(::subcontract::SpringError),
    }

    impl From<::subcontract::SpringError> for FileError {
        fn from(e: ::subcontract::SpringError) -> Self {
            FileError::System(e)
        }
    }

    impl From<::spring_buf::BufError> for FileError {
        fn from(e: ::spring_buf::BufError) -> Self {
            FileError::System(::subcontract::SpringError::Buf(e))
        }
    }

    impl From<::spring_buf::WireError> for FileError {
        fn from(e: ::spring_buf::WireError) -> Self {
            FileError::System(::subcontract::SpringError::Wire(e))
        }
    }

    impl ::std::fmt::Display for FileError {
        fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
            match self {
                FileError::IoError(__e) => write!(f, "fs::io_error: {:?}", __e),
                FileError::System(__e) => write!(f, "{}", __e),
            }
        }
    }

    impl ::std::error::Error for FileError {}

    /// Client stub for `fs::file` (subcontract-independent).
    #[derive(Debug)]
    pub struct File {
        obj: ::subcontract::SpringObj,
    }

    impl File {
        /// Wraps an object, verifying its run-time type.
        pub fn from_obj(obj: ::subcontract::SpringObj) -> ::subcontract::Result<Self> {
            obj.narrow(&FILE_TYPE)?;
            Ok(File { obj })
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
            Ok(File { obj: self.obj.copy()? })
        }

        /// Invokes `fs::file::size` on the remote object.
        pub fn size(&self) -> ::std::result::Result<i64, super::fs::FileError> {
            let mut __call = self.obj.start_call(super::fs::file_ops::SIZE)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 8)?;
                    let __r0 = ::spring_buf::flat::get_i64(__flat, 0);
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "fs::io_error" => Err(super::fs::FileError::IoError(super::fs::IoError::idl_decode(&mut __reply)?)),
                    __other => Err(super::fs::FileError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `fs::file::read` on the remote object.
        pub fn read(&self, offset: i64, count: i64) -> ::std::result::Result<Vec<u8>, super::fs::FileError> {
            let mut __call = self.obj.start_call(super::fs::file_ops::READ)?;
            __call.align8();
            (&mut __call).put_i64(offset);
            (&mut __call).put_i64(count);
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __r0 = (&mut __reply).get_bytes()?;
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "fs::io_error" => Err(super::fs::FileError::IoError(super::fs::IoError::idl_decode(&mut __reply)?)),
                    __other => Err(super::fs::FileError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `fs::file::write` on the remote object.
        pub fn write(&self, offset: i64, data: &[u8]) -> ::std::result::Result<(), super::fs::FileError> {
            let mut __call = self.obj.start_call(super::fs::file_ops::WRITE)?;
            (&mut __call).put_i64(offset);
            (&mut __call).put_bytes(&(*data));
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    Ok(())
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "fs::io_error" => Err(super::fs::FileError::IoError(super::fs::IoError::idl_decode(&mut __reply)?)),
                    __other => Err(super::fs::FileError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `fs::file::truncate` on the remote object.
        pub fn truncate(&self, new_size: i64) -> ::std::result::Result<(), super::fs::FileError> {
            let mut __call = self.obj.start_call(super::fs::file_ops::TRUNCATE)?;
            __call.align8();
            (&mut __call).put_i64(new_size);
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    Ok(())
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "fs::io_error" => Err(super::fs::FileError::IoError(super::fs::IoError::idl_decode(&mut __reply)?)),
                    __other => Err(super::fs::FileError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `fs::file::stat` on the remote object.
        pub fn stat(&self) -> ::std::result::Result<super::fs::FileStat, super::fs::FileError> {
            let mut __call = self.obj.start_call(super::fs::file_ops::STAT)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 17)?;
                    super::fs::FileStat::validate(&__flat[0..17])?;
                    let __r0 = super::fs::FileStatView::assume_valid(&__flat[0..17]).to_owned();
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "fs::io_error" => Err(super::fs::FileError::IoError(super::fs::IoError::idl_decode(&mut __reply)?)),
                    __other => Err(super::fs::FileError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `fs::file::version` on the remote object.
        pub fn version(&self) -> ::std::result::Result<i64, super::fs::FileError> {
            let mut __call = self.obj.start_call(super::fs::file_ops::VERSION)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 8)?;
                    let __r0 = ::spring_buf::flat::get_i64(__flat, 0);
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "fs::io_error" => Err(super::fs::FileError::IoError(super::fs::IoError::idl_decode(&mut __reply)?)),
                    __other => Err(super::fs::FileError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }
    }

    /// Server application interface for `fs::file`.
    pub trait FileServant: Send + Sync + 'static {
        /// Serves `fs::file::size`.
        fn size(&self) -> ::std::result::Result<i64, super::fs::FileError>;
        /// Serves `fs::file::read`.
        fn read(&self, offset: i64, count: i64) -> ::std::result::Result<Vec<u8>, super::fs::FileError>;
        /// Serves `fs::file::write`.
        fn write(&self, offset: i64, data: Vec<u8>) -> ::std::result::Result<(), super::fs::FileError>;
        /// Serves `fs::file::truncate`.
        fn truncate(&self, new_size: i64) -> ::std::result::Result<(), super::fs::FileError>;
        /// Serves `fs::file::stat`.
        fn stat(&self) -> ::std::result::Result<super::fs::FileStat, super::fs::FileError>;
        /// Serves `fs::file::version`.
        fn version(&self) -> ::std::result::Result<i64, super::fs::FileError>;
        /// The last door identifier for this object died (§7).
        fn unreferenced(&self) {}
    }

    /// Server-side stub (skeleton) for `fs::file`: unmarshals arguments and calls into the server application (§4).
    pub struct FileSkeleton<S: FileServant> {
        servant: ::std::sync::Arc<S>,
    }

    impl<S: FileServant> FileSkeleton<S> {
        /// Wraps a servant for export through any server subcontract.
        pub fn new(servant: ::std::sync::Arc<S>) -> ::std::sync::Arc<Self> {
            ::std::sync::Arc::new(FileSkeleton { servant })
        }
    }

    impl<S: FileServant> ::subcontract::Dispatch for FileSkeleton<S> {
        fn type_info(&self) -> &'static ::subcontract::TypeInfo {
            &FILE_TYPE
        }

        fn dispatch(&self, __sctx: &::subcontract::ServerCtx, __op: u32, __args: &mut ::spring_buf::CommBuffer, __reply: &mut ::spring_buf::CommBuffer) -> ::subcontract::Result<()> {
            match __op {
                __x if __x == super::fs::file_ops::SIZE => {
                    match self.servant.size() {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            __reply.put_i64(__r0);
                        }
                        Err(super::fs::FileError::IoError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "fs::io_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::fs::FileError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::fs::file_ops::READ => {
                    let __flat = __args.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 16)?;
                    let __a_offset = ::spring_buf::flat::get_i64(__flat, 0);
                    let __a_count = ::spring_buf::flat::get_i64(__flat, 8);
                    match self.servant.read(__a_offset, __a_count) {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.put_bytes(&__r0);
                        }
                        Err(super::fs::FileError::IoError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "fs::io_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::fs::FileError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::fs::file_ops::WRITE => {
                    let __a_offset = __args.get_i64()?;
                    let __a_data = __args.get_bytes()?;
                    match self.servant.write(__a_offset, __a_data) {
                        Ok(()) => {
                            ::subcontract::encode_ok(__reply);
                        }
                        Err(super::fs::FileError::IoError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "fs::io_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::fs::FileError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::fs::file_ops::TRUNCATE => {
                    let __flat = __args.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 8)?;
                    let __a_new_size = ::spring_buf::flat::get_i64(__flat, 0);
                    match self.servant.truncate(__a_new_size) {
                        Ok(()) => {
                            ::subcontract::encode_ok(__reply);
                        }
                        Err(super::fs::FileError::IoError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "fs::io_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::fs::FileError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::fs::file_ops::STAT => {
                    match self.servant.stat() {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            (__r0).idl_encode(__reply);
                        }
                        Err(super::fs::FileError::IoError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "fs::io_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::fs::FileError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::fs::file_ops::VERSION => {
                    match self.servant.version() {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            __reply.put_i64(__r0);
                        }
                        Err(super::fs::FileError::IoError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "fs::io_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::fs::FileError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __other => Err(::subcontract::SpringError::UnknownOp(__other)),
            }
        }

        fn unreferenced(&self) {
            <S as FileServant>::unreferenced(&self.servant)
        }
    }

    /// Run-time type information for `fs::cacheable_file`.
    pub static CACHEABLE_FILE_TYPE: ::subcontract::TypeInfo = ::subcontract::TypeInfo {
        name: "fs::cacheable_file",
        parents: &[&super::fs::FILE_TYPE],
        default_subcontract: ::subcontract::ScId::from_name("caching"),
    };

    /// Operation numbers for `fs::cacheable_file`.
    pub mod cacheable_file_ops {
        pub const SIZE: u32 = 0x23a0d95c;
        pub const READ: u32 = 0xcedfa3c5;
        pub const WRITE: u32 = 0xbe269f5c;
        pub const TRUNCATE: u32 = 0x423c87b7;
        pub const STAT: u32 = 0xd33b3297;
        pub const VERSION: u32 = 0x4671ae97;
        pub const CACHE_MANAGER_NAME: u32 = 0xfd113385;
    }

    /// Errors raised by `fs::cacheable_file`'s own operations.
    #[derive(Debug)]
    pub enum CacheableFileError {
        System(::subcontract::SpringError),
    }

    impl From<::subcontract::SpringError> for CacheableFileError {
        fn from(e: ::subcontract::SpringError) -> Self {
            CacheableFileError::System(e)
        }
    }

    impl From<::spring_buf::BufError> for CacheableFileError {
        fn from(e: ::spring_buf::BufError) -> Self {
            CacheableFileError::System(::subcontract::SpringError::Buf(e))
        }
    }

    impl From<::spring_buf::WireError> for CacheableFileError {
        fn from(e: ::spring_buf::WireError) -> Self {
            CacheableFileError::System(::subcontract::SpringError::Wire(e))
        }
    }

    impl ::std::fmt::Display for CacheableFileError {
        fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
            match self {
                CacheableFileError::System(__e) => write!(f, "{}", __e),
            }
        }
    }

    impl ::std::error::Error for CacheableFileError {}

    /// Client stub for `fs::cacheable_file` (subcontract-independent).
    #[derive(Debug)]
    pub struct CacheableFile {
        obj: ::subcontract::SpringObj,
    }

    impl CacheableFile {
        /// Wraps an object, verifying its run-time type.
        pub fn from_obj(obj: ::subcontract::SpringObj) -> ::subcontract::Result<Self> {
            obj.narrow(&CACHEABLE_FILE_TYPE)?;
            Ok(CacheableFile { obj })
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
            Ok(CacheableFile { obj: self.obj.copy()? })
        }

        /// Invokes `fs::file::size` on the remote object.
        pub fn size(&self) -> ::std::result::Result<i64, super::fs::FileError> {
            let mut __call = self.obj.start_call(super::fs::cacheable_file_ops::SIZE)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 8)?;
                    let __r0 = ::spring_buf::flat::get_i64(__flat, 0);
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "fs::io_error" => Err(super::fs::FileError::IoError(super::fs::IoError::idl_decode(&mut __reply)?)),
                    __other => Err(super::fs::FileError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `fs::file::read` on the remote object.
        pub fn read(&self, offset: i64, count: i64) -> ::std::result::Result<Vec<u8>, super::fs::FileError> {
            let mut __call = self.obj.start_call(super::fs::cacheable_file_ops::READ)?;
            __call.align8();
            (&mut __call).put_i64(offset);
            (&mut __call).put_i64(count);
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __r0 = (&mut __reply).get_bytes()?;
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "fs::io_error" => Err(super::fs::FileError::IoError(super::fs::IoError::idl_decode(&mut __reply)?)),
                    __other => Err(super::fs::FileError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `fs::file::write` on the remote object.
        pub fn write(&self, offset: i64, data: &[u8]) -> ::std::result::Result<(), super::fs::FileError> {
            let mut __call = self.obj.start_call(super::fs::cacheable_file_ops::WRITE)?;
            (&mut __call).put_i64(offset);
            (&mut __call).put_bytes(&(*data));
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    Ok(())
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "fs::io_error" => Err(super::fs::FileError::IoError(super::fs::IoError::idl_decode(&mut __reply)?)),
                    __other => Err(super::fs::FileError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `fs::file::truncate` on the remote object.
        pub fn truncate(&self, new_size: i64) -> ::std::result::Result<(), super::fs::FileError> {
            let mut __call = self.obj.start_call(super::fs::cacheable_file_ops::TRUNCATE)?;
            __call.align8();
            (&mut __call).put_i64(new_size);
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    Ok(())
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "fs::io_error" => Err(super::fs::FileError::IoError(super::fs::IoError::idl_decode(&mut __reply)?)),
                    __other => Err(super::fs::FileError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `fs::file::stat` on the remote object.
        pub fn stat(&self) -> ::std::result::Result<super::fs::FileStat, super::fs::FileError> {
            let mut __call = self.obj.start_call(super::fs::cacheable_file_ops::STAT)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 17)?;
                    super::fs::FileStat::validate(&__flat[0..17])?;
                    let __r0 = super::fs::FileStatView::assume_valid(&__flat[0..17]).to_owned();
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "fs::io_error" => Err(super::fs::FileError::IoError(super::fs::IoError::idl_decode(&mut __reply)?)),
                    __other => Err(super::fs::FileError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `fs::file::version` on the remote object.
        pub fn version(&self) -> ::std::result::Result<i64, super::fs::FileError> {
            let mut __call = self.obj.start_call(super::fs::cacheable_file_ops::VERSION)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 8)?;
                    let __r0 = ::spring_buf::flat::get_i64(__flat, 0);
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "fs::io_error" => Err(super::fs::FileError::IoError(super::fs::IoError::idl_decode(&mut __reply)?)),
                    __other => Err(super::fs::FileError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `fs::cacheable_file::cache_manager_name` on the remote object.
        pub fn cache_manager_name(&self) -> ::std::result::Result<String, super::fs::CacheableFileError> {
            let mut __call = self.obj.start_call(super::fs::cacheable_file_ops::CACHE_MANAGER_NAME)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __r0 = (&mut __reply).get_string()?;
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::fs::CacheableFileError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }
    }

    /// Server application interface for `fs::cacheable_file`.
    pub trait CacheableFileServant: super::fs::FileServant {
        /// Serves `fs::cacheable_file::cache_manager_name`.
        fn cache_manager_name(&self) -> ::std::result::Result<String, super::fs::CacheableFileError>;
        /// The last door identifier for this object died (§7).
        fn unreferenced(&self) {}
    }

    /// Server-side stub (skeleton) for `fs::cacheable_file`: unmarshals arguments and calls into the server application (§4).
    pub struct CacheableFileSkeleton<S: CacheableFileServant> {
        servant: ::std::sync::Arc<S>,
    }

    impl<S: CacheableFileServant> CacheableFileSkeleton<S> {
        /// Wraps a servant for export through any server subcontract.
        pub fn new(servant: ::std::sync::Arc<S>) -> ::std::sync::Arc<Self> {
            ::std::sync::Arc::new(CacheableFileSkeleton { servant })
        }
    }

    impl<S: CacheableFileServant> ::subcontract::Dispatch for CacheableFileSkeleton<S> {
        fn type_info(&self) -> &'static ::subcontract::TypeInfo {
            &CACHEABLE_FILE_TYPE
        }

        fn dispatch(&self, __sctx: &::subcontract::ServerCtx, __op: u32, __args: &mut ::spring_buf::CommBuffer, __reply: &mut ::spring_buf::CommBuffer) -> ::subcontract::Result<()> {
            match __op {
                __x if __x == super::fs::cacheable_file_ops::SIZE => {
                    match self.servant.size() {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            __reply.put_i64(__r0);
                        }
                        Err(super::fs::FileError::IoError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "fs::io_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::fs::FileError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::fs::cacheable_file_ops::READ => {
                    let __flat = __args.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 16)?;
                    let __a_offset = ::spring_buf::flat::get_i64(__flat, 0);
                    let __a_count = ::spring_buf::flat::get_i64(__flat, 8);
                    match self.servant.read(__a_offset, __a_count) {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.put_bytes(&__r0);
                        }
                        Err(super::fs::FileError::IoError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "fs::io_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::fs::FileError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::fs::cacheable_file_ops::WRITE => {
                    let __a_offset = __args.get_i64()?;
                    let __a_data = __args.get_bytes()?;
                    match self.servant.write(__a_offset, __a_data) {
                        Ok(()) => {
                            ::subcontract::encode_ok(__reply);
                        }
                        Err(super::fs::FileError::IoError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "fs::io_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::fs::FileError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::fs::cacheable_file_ops::TRUNCATE => {
                    let __flat = __args.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 8)?;
                    let __a_new_size = ::spring_buf::flat::get_i64(__flat, 0);
                    match self.servant.truncate(__a_new_size) {
                        Ok(()) => {
                            ::subcontract::encode_ok(__reply);
                        }
                        Err(super::fs::FileError::IoError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "fs::io_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::fs::FileError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::fs::cacheable_file_ops::STAT => {
                    match self.servant.stat() {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            (__r0).idl_encode(__reply);
                        }
                        Err(super::fs::FileError::IoError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "fs::io_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::fs::FileError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::fs::cacheable_file_ops::VERSION => {
                    match self.servant.version() {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            __reply.put_i64(__r0);
                        }
                        Err(super::fs::FileError::IoError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "fs::io_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::fs::FileError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::fs::cacheable_file_ops::CACHE_MANAGER_NAME => {
                    match self.servant.cache_manager_name() {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.put_string(&__r0);
                        }
                        Err(super::fs::CacheableFileError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __other => Err(::subcontract::SpringError::UnknownOp(__other)),
            }
        }

        fn unreferenced(&self) {
            <S as CacheableFileServant>::unreferenced(&self.servant)
        }
    }

    /// Run-time type information for `fs::replicated_file`.
    pub static REPLICATED_FILE_TYPE: ::subcontract::TypeInfo = ::subcontract::TypeInfo {
        name: "fs::replicated_file",
        parents: &[&super::fs::FILE_TYPE],
        default_subcontract: ::subcontract::ScId::from_name("replicon"),
    };

    /// Operation numbers for `fs::replicated_file`.
    pub mod replicated_file_ops {
        pub const SIZE: u32 = 0x23a0d95c;
        pub const READ: u32 = 0xcedfa3c5;
        pub const WRITE: u32 = 0xbe269f5c;
        pub const TRUNCATE: u32 = 0x423c87b7;
        pub const STAT: u32 = 0xd33b3297;
        pub const VERSION: u32 = 0x4671ae97;
        pub const REPLICA_COUNT: u32 = 0x780a0e67;
        pub const SYNC_WRITE: u32 = 0xc46f7b82;
        pub const SYNC_TRUNCATE: u32 = 0xbd9ceb75;
    }

    /// Errors raised by `fs::replicated_file`'s own operations.
    #[derive(Debug)]
    pub enum ReplicatedFileError {
        IoError(super::fs::IoError),
        System(::subcontract::SpringError),
    }

    impl From<::subcontract::SpringError> for ReplicatedFileError {
        fn from(e: ::subcontract::SpringError) -> Self {
            ReplicatedFileError::System(e)
        }
    }

    impl From<::spring_buf::BufError> for ReplicatedFileError {
        fn from(e: ::spring_buf::BufError) -> Self {
            ReplicatedFileError::System(::subcontract::SpringError::Buf(e))
        }
    }

    impl From<::spring_buf::WireError> for ReplicatedFileError {
        fn from(e: ::spring_buf::WireError) -> Self {
            ReplicatedFileError::System(::subcontract::SpringError::Wire(e))
        }
    }

    impl ::std::fmt::Display for ReplicatedFileError {
        fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
            match self {
                ReplicatedFileError::IoError(__e) => write!(f, "fs::io_error: {:?}", __e),
                ReplicatedFileError::System(__e) => write!(f, "{}", __e),
            }
        }
    }

    impl ::std::error::Error for ReplicatedFileError {}

    /// Client stub for `fs::replicated_file` (subcontract-independent).
    #[derive(Debug)]
    pub struct ReplicatedFile {
        obj: ::subcontract::SpringObj,
    }

    impl ReplicatedFile {
        /// Wraps an object, verifying its run-time type.
        pub fn from_obj(obj: ::subcontract::SpringObj) -> ::subcontract::Result<Self> {
            obj.narrow(&REPLICATED_FILE_TYPE)?;
            Ok(ReplicatedFile { obj })
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
            Ok(ReplicatedFile { obj: self.obj.copy()? })
        }

        /// Invokes `fs::file::size` on the remote object.
        pub fn size(&self) -> ::std::result::Result<i64, super::fs::FileError> {
            let mut __call = self.obj.start_call(super::fs::replicated_file_ops::SIZE)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 8)?;
                    let __r0 = ::spring_buf::flat::get_i64(__flat, 0);
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "fs::io_error" => Err(super::fs::FileError::IoError(super::fs::IoError::idl_decode(&mut __reply)?)),
                    __other => Err(super::fs::FileError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `fs::file::read` on the remote object.
        pub fn read(&self, offset: i64, count: i64) -> ::std::result::Result<Vec<u8>, super::fs::FileError> {
            let mut __call = self.obj.start_call(super::fs::replicated_file_ops::READ)?;
            __call.align8();
            (&mut __call).put_i64(offset);
            (&mut __call).put_i64(count);
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __r0 = (&mut __reply).get_bytes()?;
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "fs::io_error" => Err(super::fs::FileError::IoError(super::fs::IoError::idl_decode(&mut __reply)?)),
                    __other => Err(super::fs::FileError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `fs::file::write` on the remote object.
        pub fn write(&self, offset: i64, data: &[u8]) -> ::std::result::Result<(), super::fs::FileError> {
            let mut __call = self.obj.start_call(super::fs::replicated_file_ops::WRITE)?;
            (&mut __call).put_i64(offset);
            (&mut __call).put_bytes(&(*data));
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    Ok(())
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "fs::io_error" => Err(super::fs::FileError::IoError(super::fs::IoError::idl_decode(&mut __reply)?)),
                    __other => Err(super::fs::FileError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `fs::file::truncate` on the remote object.
        pub fn truncate(&self, new_size: i64) -> ::std::result::Result<(), super::fs::FileError> {
            let mut __call = self.obj.start_call(super::fs::replicated_file_ops::TRUNCATE)?;
            __call.align8();
            (&mut __call).put_i64(new_size);
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    Ok(())
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "fs::io_error" => Err(super::fs::FileError::IoError(super::fs::IoError::idl_decode(&mut __reply)?)),
                    __other => Err(super::fs::FileError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `fs::file::stat` on the remote object.
        pub fn stat(&self) -> ::std::result::Result<super::fs::FileStat, super::fs::FileError> {
            let mut __call = self.obj.start_call(super::fs::replicated_file_ops::STAT)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 17)?;
                    super::fs::FileStat::validate(&__flat[0..17])?;
                    let __r0 = super::fs::FileStatView::assume_valid(&__flat[0..17]).to_owned();
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "fs::io_error" => Err(super::fs::FileError::IoError(super::fs::IoError::idl_decode(&mut __reply)?)),
                    __other => Err(super::fs::FileError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `fs::file::version` on the remote object.
        pub fn version(&self) -> ::std::result::Result<i64, super::fs::FileError> {
            let mut __call = self.obj.start_call(super::fs::replicated_file_ops::VERSION)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 8)?;
                    let __r0 = ::spring_buf::flat::get_i64(__flat, 0);
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "fs::io_error" => Err(super::fs::FileError::IoError(super::fs::IoError::idl_decode(&mut __reply)?)),
                    __other => Err(super::fs::FileError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `fs::replicated_file::replica_count` on the remote object.
        pub fn replica_count(&self) -> ::std::result::Result<i32, super::fs::ReplicatedFileError> {
            let mut __call = self.obj.start_call(super::fs::replicated_file_ops::REPLICA_COUNT)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 4)?;
                    let __r0 = ::spring_buf::flat::get_i32(__flat, 0);
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::fs::ReplicatedFileError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `fs::replicated_file::sync_write` on the remote object.
        pub fn sync_write(&self, offset: i64, data: &[u8]) -> ::std::result::Result<(), super::fs::ReplicatedFileError> {
            let mut __call = self.obj.start_call(super::fs::replicated_file_ops::SYNC_WRITE)?;
            (&mut __call).put_i64(offset);
            (&mut __call).put_bytes(&(*data));
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    Ok(())
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "fs::io_error" => Err(super::fs::ReplicatedFileError::IoError(super::fs::IoError::idl_decode(&mut __reply)?)),
                    __other => Err(super::fs::ReplicatedFileError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `fs::replicated_file::sync_truncate` on the remote object.
        pub fn sync_truncate(&self, new_size: i64) -> ::std::result::Result<(), super::fs::ReplicatedFileError> {
            let mut __call = self.obj.start_call(super::fs::replicated_file_ops::SYNC_TRUNCATE)?;
            __call.align8();
            (&mut __call).put_i64(new_size);
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    Ok(())
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "fs::io_error" => Err(super::fs::ReplicatedFileError::IoError(super::fs::IoError::idl_decode(&mut __reply)?)),
                    __other => Err(super::fs::ReplicatedFileError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }
    }

    /// Server application interface for `fs::replicated_file`.
    pub trait ReplicatedFileServant: super::fs::FileServant {
        /// Serves `fs::replicated_file::replica_count`.
        fn replica_count(&self) -> ::std::result::Result<i32, super::fs::ReplicatedFileError>;
        /// Serves `fs::replicated_file::sync_write`.
        fn sync_write(&self, offset: i64, data: Vec<u8>) -> ::std::result::Result<(), super::fs::ReplicatedFileError>;
        /// Serves `fs::replicated_file::sync_truncate`.
        fn sync_truncate(&self, new_size: i64) -> ::std::result::Result<(), super::fs::ReplicatedFileError>;
        /// The last door identifier for this object died (§7).
        fn unreferenced(&self) {}
    }

    /// Server-side stub (skeleton) for `fs::replicated_file`: unmarshals arguments and calls into the server application (§4).
    pub struct ReplicatedFileSkeleton<S: ReplicatedFileServant> {
        servant: ::std::sync::Arc<S>,
    }

    impl<S: ReplicatedFileServant> ReplicatedFileSkeleton<S> {
        /// Wraps a servant for export through any server subcontract.
        pub fn new(servant: ::std::sync::Arc<S>) -> ::std::sync::Arc<Self> {
            ::std::sync::Arc::new(ReplicatedFileSkeleton { servant })
        }
    }

    impl<S: ReplicatedFileServant> ::subcontract::Dispatch for ReplicatedFileSkeleton<S> {
        fn type_info(&self) -> &'static ::subcontract::TypeInfo {
            &REPLICATED_FILE_TYPE
        }

        fn dispatch(&self, __sctx: &::subcontract::ServerCtx, __op: u32, __args: &mut ::spring_buf::CommBuffer, __reply: &mut ::spring_buf::CommBuffer) -> ::subcontract::Result<()> {
            match __op {
                __x if __x == super::fs::replicated_file_ops::SIZE => {
                    match self.servant.size() {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            __reply.put_i64(__r0);
                        }
                        Err(super::fs::FileError::IoError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "fs::io_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::fs::FileError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::fs::replicated_file_ops::READ => {
                    let __flat = __args.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 16)?;
                    let __a_offset = ::spring_buf::flat::get_i64(__flat, 0);
                    let __a_count = ::spring_buf::flat::get_i64(__flat, 8);
                    match self.servant.read(__a_offset, __a_count) {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.put_bytes(&__r0);
                        }
                        Err(super::fs::FileError::IoError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "fs::io_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::fs::FileError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::fs::replicated_file_ops::WRITE => {
                    let __a_offset = __args.get_i64()?;
                    let __a_data = __args.get_bytes()?;
                    match self.servant.write(__a_offset, __a_data) {
                        Ok(()) => {
                            ::subcontract::encode_ok(__reply);
                        }
                        Err(super::fs::FileError::IoError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "fs::io_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::fs::FileError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::fs::replicated_file_ops::TRUNCATE => {
                    let __flat = __args.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 8)?;
                    let __a_new_size = ::spring_buf::flat::get_i64(__flat, 0);
                    match self.servant.truncate(__a_new_size) {
                        Ok(()) => {
                            ::subcontract::encode_ok(__reply);
                        }
                        Err(super::fs::FileError::IoError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "fs::io_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::fs::FileError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::fs::replicated_file_ops::STAT => {
                    match self.servant.stat() {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            (__r0).idl_encode(__reply);
                        }
                        Err(super::fs::FileError::IoError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "fs::io_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::fs::FileError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::fs::replicated_file_ops::VERSION => {
                    match self.servant.version() {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            __reply.put_i64(__r0);
                        }
                        Err(super::fs::FileError::IoError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "fs::io_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::fs::FileError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::fs::replicated_file_ops::REPLICA_COUNT => {
                    match self.servant.replica_count() {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            __reply.put_i32(__r0);
                        }
                        Err(super::fs::ReplicatedFileError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::fs::replicated_file_ops::SYNC_WRITE => {
                    let __a_offset = __args.get_i64()?;
                    let __a_data = __args.get_bytes()?;
                    match self.servant.sync_write(__a_offset, __a_data) {
                        Ok(()) => {
                            ::subcontract::encode_ok(__reply);
                        }
                        Err(super::fs::ReplicatedFileError::IoError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "fs::io_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::fs::ReplicatedFileError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::fs::replicated_file_ops::SYNC_TRUNCATE => {
                    let __flat = __args.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 8)?;
                    let __a_new_size = ::spring_buf::flat::get_i64(__flat, 0);
                    match self.servant.sync_truncate(__a_new_size) {
                        Ok(()) => {
                            ::subcontract::encode_ok(__reply);
                        }
                        Err(super::fs::ReplicatedFileError::IoError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "fs::io_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::fs::ReplicatedFileError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __other => Err(::subcontract::SpringError::UnknownOp(__other)),
            }
        }

        fn unreferenced(&self) {
            <S as ReplicatedFileServant>::unreferenced(&self.servant)
        }
    }

    /// Run-time type information for `fs::file_system`.
    pub static FILE_SYSTEM_TYPE: ::subcontract::TypeInfo = ::subcontract::TypeInfo {
        name: "fs::file_system",
        parents: &[&::subcontract::OBJECT_TYPE],
        default_subcontract: ::subcontract::ScId::from_name("singleton"),
    };

    /// Operation numbers for `fs::file_system`.
    pub mod file_system_ops {
        pub const OPEN: u32 = 0xd35ec4c9;
        pub const OPEN_CACHED: u32 = 0xc38d5f6c;
        pub const CREATE: u32 = 0x26bb595d;
        pub const REMOVE: u32 = 0xdb9215fd;
        pub const LIST: u32 = 0x0cfb5881;
        pub const IMPORT_FILE: u32 = 0x15dd3817;
    }

    /// Errors raised by `fs::file_system`'s own operations.
    #[derive(Debug)]
    pub enum FileSystemError {
        IoError(super::fs::IoError),
        System(::subcontract::SpringError),
    }

    impl From<::subcontract::SpringError> for FileSystemError {
        fn from(e: ::subcontract::SpringError) -> Self {
            FileSystemError::System(e)
        }
    }

    impl From<::spring_buf::BufError> for FileSystemError {
        fn from(e: ::spring_buf::BufError) -> Self {
            FileSystemError::System(::subcontract::SpringError::Buf(e))
        }
    }

    impl From<::spring_buf::WireError> for FileSystemError {
        fn from(e: ::spring_buf::WireError) -> Self {
            FileSystemError::System(::subcontract::SpringError::Wire(e))
        }
    }

    impl ::std::fmt::Display for FileSystemError {
        fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
            match self {
                FileSystemError::IoError(__e) => write!(f, "fs::io_error: {:?}", __e),
                FileSystemError::System(__e) => write!(f, "{}", __e),
            }
        }
    }

    impl ::std::error::Error for FileSystemError {}

    /// Client stub for `fs::file_system` (subcontract-independent).
    #[derive(Debug)]
    pub struct FileSystem {
        obj: ::subcontract::SpringObj,
    }

    impl FileSystem {
        /// Wraps an object, verifying its run-time type.
        pub fn from_obj(obj: ::subcontract::SpringObj) -> ::subcontract::Result<Self> {
            obj.narrow(&FILE_SYSTEM_TYPE)?;
            Ok(FileSystem { obj })
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
            Ok(FileSystem { obj: self.obj.copy()? })
        }

        /// Invokes `fs::file_system::open` on the remote object.
        pub fn open(&self, name: &str) -> ::std::result::Result<super::fs::File, super::fs::FileSystemError> {
            let mut __call = self.obj.start_call(super::fs::file_system_ops::OPEN)?;
            (&mut __call).put_string(&(*name));
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __r0 = ::subcontract::unmarshal_object(self.obj.ctx(), &super::fs::FILE_TYPE, &mut __reply)?;
                    let __r0 = super::fs::File::from_obj(__r0)?;
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "fs::io_error" => Err(super::fs::FileSystemError::IoError(super::fs::IoError::idl_decode(&mut __reply)?)),
                    __other => Err(super::fs::FileSystemError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `fs::file_system::open_cached` on the remote object.
        pub fn open_cached(&self, name: &str) -> ::std::result::Result<super::fs::CacheableFile, super::fs::FileSystemError> {
            let mut __call = self.obj.start_call(super::fs::file_system_ops::OPEN_CACHED)?;
            (&mut __call).put_string(&(*name));
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __r0 = ::subcontract::unmarshal_object(self.obj.ctx(), &super::fs::CACHEABLE_FILE_TYPE, &mut __reply)?;
                    let __r0 = super::fs::CacheableFile::from_obj(__r0)?;
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "fs::io_error" => Err(super::fs::FileSystemError::IoError(super::fs::IoError::idl_decode(&mut __reply)?)),
                    __other => Err(super::fs::FileSystemError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `fs::file_system::create` on the remote object.
        pub fn create(&self, name: &str) -> ::std::result::Result<(), super::fs::FileSystemError> {
            let mut __call = self.obj.start_call(super::fs::file_system_ops::CREATE)?;
            (&mut __call).put_string(&(*name));
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    Ok(())
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "fs::io_error" => Err(super::fs::FileSystemError::IoError(super::fs::IoError::idl_decode(&mut __reply)?)),
                    __other => Err(super::fs::FileSystemError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `fs::file_system::remove` on the remote object.
        pub fn remove(&self, name: &str) -> ::std::result::Result<(), super::fs::FileSystemError> {
            let mut __call = self.obj.start_call(super::fs::file_system_ops::REMOVE)?;
            (&mut __call).put_string(&(*name));
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    Ok(())
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "fs::io_error" => Err(super::fs::FileSystemError::IoError(super::fs::IoError::idl_decode(&mut __reply)?)),
                    __other => Err(super::fs::FileSystemError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `fs::file_system::list` on the remote object.
        pub fn list(&self) -> ::std::result::Result<Vec<String>, super::fs::FileSystemError> {
            let mut __call = self.obj.start_call(super::fs::file_system_ops::LIST)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __r0 = { let __n = (&mut __reply).get_seq_len(4)?; let mut __v = Vec::with_capacity(__n); for _ in 0..__n { __v.push((&mut __reply).get_string()?); } __v };
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::fs::FileSystemError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `fs::file_system::import_file` on the remote object.
        pub fn import_file(&self, name: &str, source: &super::fs::File) -> ::std::result::Result<(), super::fs::FileSystemError> {
            let mut __call = self.obj.start_call(super::fs::file_system_ops::IMPORT_FILE)?;
            (&mut __call).put_string(&(*name));
            source.obj().marshal_copy(&mut __call)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    Ok(())
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "fs::io_error" => Err(super::fs::FileSystemError::IoError(super::fs::IoError::idl_decode(&mut __reply)?)),
                    __other => Err(super::fs::FileSystemError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }
    }

    /// Server application interface for `fs::file_system`.
    pub trait FileSystemServant: Send + Sync + 'static {
        /// Serves `fs::file_system::open`.
        fn open(&self, name: String) -> ::std::result::Result<super::fs::File, super::fs::FileSystemError>;
        /// Serves `fs::file_system::open_cached`.
        fn open_cached(&self, name: String) -> ::std::result::Result<super::fs::CacheableFile, super::fs::FileSystemError>;
        /// Serves `fs::file_system::create`.
        fn create(&self, name: String) -> ::std::result::Result<(), super::fs::FileSystemError>;
        /// Serves `fs::file_system::remove`.
        fn remove(&self, name: String) -> ::std::result::Result<(), super::fs::FileSystemError>;
        /// Serves `fs::file_system::list`.
        fn list(&self) -> ::std::result::Result<Vec<String>, super::fs::FileSystemError>;
        /// Serves `fs::file_system::import_file`.
        fn import_file(&self, name: String, source: super::fs::File) -> ::std::result::Result<(), super::fs::FileSystemError>;
        /// The last door identifier for this object died (§7).
        fn unreferenced(&self) {}
    }

    /// Server-side stub (skeleton) for `fs::file_system`: unmarshals arguments and calls into the server application (§4).
    pub struct FileSystemSkeleton<S: FileSystemServant> {
        servant: ::std::sync::Arc<S>,
    }

    impl<S: FileSystemServant> FileSystemSkeleton<S> {
        /// Wraps a servant for export through any server subcontract.
        pub fn new(servant: ::std::sync::Arc<S>) -> ::std::sync::Arc<Self> {
            ::std::sync::Arc::new(FileSystemSkeleton { servant })
        }
    }

    impl<S: FileSystemServant> ::subcontract::Dispatch for FileSystemSkeleton<S> {
        fn type_info(&self) -> &'static ::subcontract::TypeInfo {
            &FILE_SYSTEM_TYPE
        }

        fn dispatch(&self, __sctx: &::subcontract::ServerCtx, __op: u32, __args: &mut ::spring_buf::CommBuffer, __reply: &mut ::spring_buf::CommBuffer) -> ::subcontract::Result<()> {
            match __op {
                __x if __x == super::fs::file_system_ops::OPEN => {
                    let __a_name = __args.get_string()?;
                    match self.servant.open(__a_name) {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __r0.into_obj().marshal(__reply)?;
                        }
                        Err(super::fs::FileSystemError::IoError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "fs::io_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::fs::FileSystemError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::fs::file_system_ops::OPEN_CACHED => {
                    let __a_name = __args.get_string()?;
                    match self.servant.open_cached(__a_name) {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __r0.into_obj().marshal(__reply)?;
                        }
                        Err(super::fs::FileSystemError::IoError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "fs::io_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::fs::FileSystemError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::fs::file_system_ops::CREATE => {
                    let __a_name = __args.get_string()?;
                    match self.servant.create(__a_name) {
                        Ok(()) => {
                            ::subcontract::encode_ok(__reply);
                        }
                        Err(super::fs::FileSystemError::IoError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "fs::io_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::fs::FileSystemError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::fs::file_system_ops::REMOVE => {
                    let __a_name = __args.get_string()?;
                    match self.servant.remove(__a_name) {
                        Ok(()) => {
                            ::subcontract::encode_ok(__reply);
                        }
                        Err(super::fs::FileSystemError::IoError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "fs::io_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::fs::FileSystemError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::fs::file_system_ops::LIST => {
                    match self.servant.list() {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.put_seq_len(__r0.len());
                            for __it in &__r0 {
                                __reply.put_string(&(*__it));
                            }
                        }
                        Err(super::fs::FileSystemError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::fs::file_system_ops::IMPORT_FILE => {
                    let __a_name = __args.get_string()?;
                    let __a_source = ::subcontract::unmarshal_object(&__sctx.ctx, &super::fs::FILE_TYPE, __args)?;
                    let __a_source = super::fs::File::from_obj(__a_source)?;
                    match self.servant.import_file(__a_name, __a_source) {
                        Ok(()) => {
                            ::subcontract::encode_ok(__reply);
                        }
                        Err(super::fs::FileSystemError::IoError(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "fs::io_error");
                            __e.idl_encode(__reply);
                        }
                        Err(super::fs::FileSystemError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __other => Err(::subcontract::SpringError::UnknownOp(__other)),
            }
        }

        fn unreferenced(&self) {
            <S as FileSystemServant>::unreferenced(&self.servant)
        }
    }
}
