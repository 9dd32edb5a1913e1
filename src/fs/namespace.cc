#include "src/fs/namespace.h"

#include <algorithm>
#include <cassert>

namespace duet {

std::vector<std::string_view> SplitPath(std::string_view path) {
  std::vector<std::string_view> parts;
  size_t start = 0;
  while (start < path.size()) {
    size_t slash = path.find('/', start);
    if (slash == std::string_view::npos) {
      slash = path.size();
    }
    if (slash > start) {
      parts.push_back(path.substr(start, slash - start));
    }
    start = slash + 1;
  }
  return parts;
}

Namespace::Namespace() {
  Inode root;
  root.ino = kRootIno;
  root.type = FileType::kDirectory;
  root.parent = kInvalidInode;
  inodes_.emplace(kRootIno, std::move(root));
}

Result<InodeNo> Namespace::Resolve(std::string_view path) const {
  InodeNo cur = kRootIno;
  for (std::string_view part : SplitPath(path)) {
    const Inode* inode = Get(cur);
    if (inode == nullptr || !inode->is_dir()) {
      return Status(StatusCode::kNotFound, std::string(path));
    }
    auto it = inode->children.find(std::string(part));
    if (it == inode->children.end()) {
      return Status(StatusCode::kNotFound, std::string(path));
    }
    cur = it->second;
  }
  return cur;
}

Result<std::string> Namespace::PathOf(InodeNo ino) const {
  const Inode* inode = Get(ino);
  if (inode == nullptr) {
    return Status(StatusCode::kNotFound);
  }
  if (ino == kRootIno) {
    return std::string("/");
  }
  std::vector<const Inode*> chain;
  while (inode != nullptr && inode->ino != kRootIno) {
    chain.push_back(inode);
    inode = Get(inode->parent);
  }
  if (inode == nullptr) {
    return Status(StatusCode::kCorruption, "detached inode");
  }
  std::string path;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    path += '/';
    path += (*it)->name;
  }
  return path;
}

const Inode* Namespace::Get(InodeNo ino) const {
  auto it = inodes_.find(ino);
  return it == inodes_.end() ? nullptr : &it->second;
}

Inode* Namespace::GetMutable(InodeNo ino) {
  auto it = inodes_.find(ino);
  return it == inodes_.end() ? nullptr : &it->second;
}

bool Namespace::IsUnder(InodeNo ino, InodeNo ancestor) const {
  while (ino != kInvalidInode) {
    if (ino == ancestor) {
      return true;
    }
    const Inode* inode = Get(ino);
    if (inode == nullptr) {
      return false;
    }
    ino = inode->parent;
  }
  return false;
}

Result<InodeNo> Namespace::Create(std::string_view path, FileType type) {
  auto parts = SplitPath(path);
  if (parts.empty()) {
    return Status(StatusCode::kInvalidArgument, "empty path");
  }
  std::string_view name = parts.back();
  InodeNo parent = kRootIno;
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    const Inode* dir = Get(parent);
    if (dir == nullptr || !dir->is_dir()) {
      return Status(StatusCode::kNotFound, std::string(path));
    }
    auto it = dir->children.find(std::string(parts[i]));
    if (it == dir->children.end()) {
      return Status(StatusCode::kNotFound, std::string(path));
    }
    parent = it->second;
  }
  return CreateIn(parent, name, type);
}

Result<InodeNo> Namespace::CreateIn(InodeNo parent, std::string_view name,
                                    FileType type) {
  Inode* dir = GetMutable(parent);
  if (dir == nullptr || !dir->is_dir()) {
    return Status(StatusCode::kNotFound, "parent");
  }
  if (name.empty() || name.find('/') != std::string_view::npos) {
    return Status(StatusCode::kInvalidArgument, std::string(name));
  }
  std::string key(name);
  if (dir->children.count(key) > 0) {
    return Status(StatusCode::kExists, key);
  }
  InodeNo ino = next_ino_++;
  Inode inode;
  inode.ino = ino;
  inode.type = type;
  inode.parent = parent;
  inode.name = key;
  dir->children.emplace(std::move(key), ino);
  inodes_.emplace(ino, std::move(inode));
  for (VfsObserver* o : observers_) {
    o->OnCreate(ino);
  }
  return ino;
}

Status Namespace::Unlink(InodeNo ino) {
  if (ino == kRootIno) {
    return Status(StatusCode::kInvalidArgument, "cannot unlink root");
  }
  Inode* inode = GetMutable(ino);
  if (inode == nullptr) {
    return Status(StatusCode::kNotFound);
  }
  if (inode->is_dir() && !inode->children.empty()) {
    return Status(StatusCode::kBusy, "directory not empty");
  }
  Inode* parent = GetMutable(inode->parent);
  assert(parent != nullptr);
  parent->children.erase(inode->name);
  inodes_.erase(ino);
  for (VfsObserver* o : observers_) {
    o->OnUnlink(ino);
  }
  return Status::Ok();
}

Status Namespace::Rename(InodeNo ino, InodeNo new_parent, std::string_view new_name) {
  if (ino == kRootIno) {
    return Status(StatusCode::kInvalidArgument, "cannot move root");
  }
  Inode* inode = GetMutable(ino);
  Inode* dest = GetMutable(new_parent);
  if (inode == nullptr || dest == nullptr || !dest->is_dir()) {
    return Status(StatusCode::kNotFound);
  }
  if (new_name.empty() || new_name.find('/') != std::string_view::npos) {
    return Status(StatusCode::kInvalidArgument, std::string(new_name));
  }
  if (inode->is_dir() && IsUnder(new_parent, ino)) {
    return Status(StatusCode::kInvalidArgument, "would create a cycle");
  }
  std::string key(new_name);
  if (dest->children.count(key) > 0) {
    return Status(StatusCode::kExists, key);
  }
  InodeNo old_parent = inode->parent;
  Inode* src = GetMutable(old_parent);
  assert(src != nullptr);
  src->children.erase(inode->name);
  inode->parent = new_parent;
  inode->name = key;
  dest->children.emplace(std::move(key), ino);
  for (VfsObserver* o : observers_) {
    o->OnRename(ino, old_parent, new_parent, inode->is_dir());
  }
  return Status::Ok();
}

void Namespace::RestoreInode(InodeNo ino, FileType type, uint64_t size,
                             InodeNo parent, std::string name) {
  Inode inode;
  inode.ino = ino;
  inode.type = type;
  inode.size = size;
  inode.parent = parent;
  inode.name = std::move(name);
  inodes_[ino] = std::move(inode);
}

Status Namespace::RestoreLinks(InodeNo next_ino) {
  for (auto& [ino, inode] : inodes_) {
    inode.children.clear();
  }
  if (!Get(kRootIno)->is_dir()) {
    return Status(StatusCode::kCorruption, "root is not a directory");
  }
  for (auto& [ino, inode] : inodes_) {
    if (ino == kInvalidInode || ino >= next_ino) {
      return Status(StatusCode::kCorruption, "inode number out of range");
    }
    if (ino == kRootIno) {
      continue;
    }
    Inode* parent = GetMutable(inode.parent);
    if (parent == nullptr || !parent->is_dir()) {
      return Status(StatusCode::kCorruption, "parent missing or not a directory");
    }
    if (!parent->children.emplace(inode.name, ino).second) {
      return Status(StatusCode::kCorruption, "duplicate name in a directory");
    }
  }
  // Each inode is linked under its one parent, so the walk from the root
  // visits a tree; an inode it misses sits on a parent cycle.
  uint64_t reached = 1;
  std::vector<const Inode*> dirs{Get(kRootIno)};
  while (!dirs.empty()) {
    const Inode* dir = dirs.back();
    dirs.pop_back();
    for (const auto& [name, child_ino] : dir->children) {
      ++reached;
      const Inode* child = Get(child_ino);
      if (child->is_dir()) {
        dirs.push_back(child);
      }
    }
  }
  if (reached != inodes_.size()) {
    return Status(StatusCode::kCorruption, "inode detached from the root");
  }
  next_ino_ = next_ino;
  return Status::Ok();
}

bool Namespace::WalkImpl(const Inode& dir,
                         const std::function<bool(const Inode&)>& fn) const {
  for (const auto& [name, child_ino] : dir.children) {
    const Inode* child = Get(child_ino);
    assert(child != nullptr);
    if (!fn(*child)) {
      return false;
    }
    if (child->is_dir() && !WalkImpl(*child, fn)) {
      return false;
    }
  }
  return true;
}

void Namespace::WalkDepthFirst(InodeNo dir,
                               const std::function<bool(const Inode&)>& fn) const {
  const Inode* inode = Get(dir);
  if (inode == nullptr || !inode->is_dir()) {
    return;
  }
  WalkImpl(*inode, fn);
}

void Namespace::ForEachInode(const std::function<void(const Inode&)>& fn) const {
  for (const auto& [ino, inode] : inodes_) {
    fn(inode);
  }
}

void Namespace::AddObserver(VfsObserver* observer) {
  assert(observer != nullptr);
  observers_.push_back(observer);
}

void Namespace::RemoveObserver(VfsObserver* observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

}  // namespace duet
