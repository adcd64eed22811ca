#include "engine/catalog.h"

#include "sim/simulation.h"

namespace citusx::engine {

Result<TableInfo*> Catalog::CreateTable(
    const std::string& name, sql::Schema schema,
    const std::vector<std::string>& primary_key, bool columnar) {
  sim::NoYieldScope no_yield;
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table already exists: " + name);
  }
  for (const auto& pk_col : primary_key) {
    if (schema.FindColumn(pk_col) < 0) {
      return Status::InvalidArgument("primary key column not found: " + pk_col);
    }
  }
  auto info = std::make_unique<TableInfo>();
  info->name = name;
  info->oid = next_oid_++;
  info->primary_key = primary_key;
  if (columnar) {
    if (!primary_key.empty()) {
      return Status::NotSupported("columnar tables do not support primary keys");
    }
    info->columnar = std::make_unique<storage::ColumnarTable>(
        info->oid, std::move(schema), pool_);
  } else {
    info->heap =
        std::make_unique<storage::HeapTable>(info->oid, std::move(schema), pool_);
  }
  TableInfo* ptr = info.get();
  tables_[name] = std::move(info);
  if (!primary_key.empty()) {
    auto idx = CreateBtreeIndex(name, name + "_pkey", primary_key,
                                /*unique=*/true);
    if (!idx.ok()) {
      tables_.erase(name);
      return idx.status();
    }
    ptr->pk_index = (*idx)->btree.get();
  }
  return ptr;
}

Result<IndexInfo*> Catalog::CreateBtreeIndex(
    const std::string& table, const std::string& index_name,
    const std::vector<std::string>& columns, bool unique) {
  sim::NoYieldScope no_yield;
  TableInfo* info = Find(table);
  if (info == nullptr) {
    return Status::NotFound("relation \"" + table + "\" does not exist");
  }
  if (info->is_columnar()) {
    return Status::NotSupported("columnar tables do not support indexes");
  }
  for (const auto& idx : info->indexes) {
    if (idx->name == index_name) {
      return Status::AlreadyExists("index already exists: " + index_name);
    }
  }
  std::vector<int> key_cols;
  for (const auto& c : columns) {
    int pos = info->schema().FindColumn(c);
    if (pos < 0) {
      return Status::InvalidArgument("index column not found: " + c);
    }
    key_cols.push_back(pos);
  }
  auto idx = std::make_unique<IndexInfo>();
  idx->name = index_name;
  idx->unique = unique;
  idx->column_names = columns;
  idx->btree = std::make_unique<storage::BtreeIndex>(next_oid_++, key_cols,
                                                     unique, pool_);
  IndexInfo* ptr = idx.get();
  info->indexes.push_back(std::move(idx));
  return ptr;
}

Result<IndexInfo*> Catalog::CreateGinIndex(const std::string& table,
                                           const std::string& index_name,
                                           sql::ExprPtr expression) {
  sim::NoYieldScope no_yield;
  TableInfo* info = Find(table);
  if (info == nullptr) {
    return Status::NotFound("relation \"" + table + "\" does not exist");
  }
  if (info->is_columnar()) {
    return Status::NotSupported("columnar tables do not support indexes");
  }
  for (const auto& idx : info->indexes) {
    if (idx->name == index_name) {
      return Status::AlreadyExists("index already exists: " + index_name);
    }
  }
  auto idx = std::make_unique<IndexInfo>();
  idx->name = index_name;
  idx->gin = std::make_unique<storage::GinTrgmIndex>(next_oid_++, pool_);
  idx->expression = std::move(expression);
  IndexInfo* ptr = idx.get();
  info->indexes.push_back(std::move(idx));
  return ptr;
}

Status Catalog::DropTable(const std::string& name) {
  std::unique_ptr<TableInfo> detached;
  {
    sim::NoYieldScope no_yield;
    auto it = tables_.find(name);
    if (it == tables_.end()) {
      return Status::NotFound("table does not exist: " + name);
    }
    detached = std::move(it->second);
    tables_.erase(it);
  }
  if (detached->heap != nullptr) detached->heap->Truncate();
  if (detached->columnar != nullptr) detached->columnar->Truncate();
  for (auto& idx : detached->indexes) {
    if (idx->btree) idx->btree->Truncate();
    if (idx->gin) idx->gin->Truncate();
  }
  return Status::OK();
}

TableInfo* Catalog::Find(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const TableInfo* Catalog::Find(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Result<TableInfo*> Catalog::Get(const std::string& name) {
  sim::NoYieldScope no_yield;
  TableInfo* info = Find(name);
  if (info == nullptr) {
    return Status::NotFound("relation \"" + name + "\" does not exist");
  }
  return info;
}

std::vector<TableInfo*> Catalog::AllTables() {
  std::vector<TableInfo*> out;
  for (auto& [name, info] : tables_) out.push_back(info.get());
  return out;
}

}  // namespace citusx::engine
